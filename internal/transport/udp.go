package transport

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/obs"
	"accelring/internal/wire"
)

// UDPPeer holds a participant's two receive addresses.
type UDPPeer struct {
	// Data is the host:port receiving data-class frames.
	Data string
	// Token is the host:port receiving token-class frames.
	Token string
}

// ShiftPort returns addr with its numeric, nonzero port offset by `by` —
// how a sharded node derives ring r's addresses from the base ones
// (by = stride * r). Ephemeral (0) and service-name ports have no ring-r
// counterpart a peer could compute, so they are errors.
func ShiftPort(addr string, by int) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", err
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", fmt.Errorf("address %q: port %q is not numeric", addr, port)
	}
	if p <= 0 || p+by > 65535 {
		return "", fmt.Errorf("address %q: port %d+%d out of range", addr, p, by)
	}
	return net.JoinHostPort(host, strconv.Itoa(p+by)), nil
}

// Shift offsets both of p's ports by `by` (see ShiftPort).
func (p UDPPeer) Shift(by int) (UDPPeer, error) {
	var err error
	if p.Data, err = ShiftPort(p.Data, by); err != nil {
		return UDPPeer{}, err
	}
	if p.Token, err = ShiftPort(p.Token, by); err != nil {
		return UDPPeer{}, err
	}
	return p, nil
}

// UDPConfig configures a UDP transport.
type UDPConfig struct {
	// Self is the local participant.
	Self evs.ProcID
	// Listen holds the local listen addresses.
	Listen UDPPeer
	// Peers maps every other participant to its addresses. Self may be
	// present and is ignored.
	Peers map[evs.ProcID]UDPPeer
	// Batch sizes sendmmsg/recvmmsg syscall coalescing on the data path.
	// The zero value keeps one syscall per datagram.
	Batch BatchConfig
	// Obs, when non-nil, receives transport.udp.* frame/byte counters.
	Obs *obs.Registry
	// Flight, when non-nil, receives a black-box event per inbound frame
	// dropped on a full receive channel.
	Flight *obs.Recorder
}

// dataChanCap and tokenChanCap size the receive channels, in frames.
const (
	dataChanCap  = 8192
	tokenChanCap = 16
)

// UDP is the real-network transport: one socket per frame class, exactly
// as the paper's implementations separate token and data traffic. Data
// frames reach the ring by unicast fan-out, one datagram per peer — the
// fallback the paper notes Spread provides where IP multicast is
// unavailable — and sends/receives can be batched into single
// sendmmsg/recvmmsg kernel crossings.
type UDP struct {
	self     evs.ProcID
	dataConn *net.UDPConn
	tokConn  *net.UDPConn

	// peers is an atomically swapped copy-on-write snapshot: senders load
	// it and fan out without holding any lock across socket writes, so a
	// concurrent AddPeer (membership change) never stalls the hot path.
	// peerMu serializes the writers only.
	peerMu sync.Mutex
	peers  atomic.Pointer[map[evs.ProcID]*udpPeerAddrs]

	// Send batching: frames staged under sendMu in pooled copies, each
	// with the peer snapshot it was addressed against. writer is non-nil
	// iff batching is on.
	sendMu    sync.Mutex
	writer    *mmsgWriter
	batchSend int
	pendBuf   [][]byte
	pendTo    []*map[evs.ProcID]*udpPeerAddrs
	// pendSince: when the oldest staged frame entered the batch (zero when
	// empty or metrics are off). Feeds the batch_wait_ns histogram so the
	// syscall-batching hold shows up in latency attribution.
	pendSince time.Time

	dataCh  chan []byte
	tokenCh chan []byte

	closed    atomic.Bool
	dataDrop  atomic.Uint64
	tokenDrop atomic.Uint64
	txSysN    atomic.Uint64
	rxSysN    atomic.Uint64
	wg        sync.WaitGroup
	nm        *netMetrics
	fl        *obs.Recorder
}

type udpPeerAddrs struct {
	data, token *net.UDPAddr
	// raw is the precomputed kernel sockaddr for the data address, built
	// once at AddPeer so the batched flush never resolves anything.
	raw   rawAddr
	rawOK bool
}

var _ Transport = (*UDP)(nil)
var _ Flusher = (*UDP)(nil)

// NewUDP opens the sockets and starts the reader goroutines.
func NewUDP(cfg UDPConfig) (*UDP, error) {
	if cfg.Self == 0 {
		return nil, fmt.Errorf("transport: udp requires Self")
	}
	dataConn, err := listenUDP(cfg.Listen.Data)
	if err != nil {
		return nil, fmt.Errorf("transport: data socket: %w", err)
	}
	tokConn, err := listenUDP(cfg.Listen.Token)
	if err != nil {
		dataConn.Close()
		return nil, fmt.Errorf("transport: token socket: %w", err)
	}
	// Large receive buffers, as production Spread configures. Errors are
	// non-fatal: the OS may clamp.
	_ = dataConn.SetReadBuffer(4 << 20)
	_ = tokConn.SetReadBuffer(256 << 10)

	u := &UDP{
		self:     cfg.Self,
		dataConn: dataConn,
		tokConn:  tokConn,
		dataCh:   make(chan []byte, dataChanCap),
		tokenCh:  make(chan []byte, tokenChanCap),
		nm:       newNetMetrics(cfg.Obs, "transport.udp."),
		fl:       cfg.Flight,
	}
	if cfg.Batch.Send > 1 {
		if w := newMMsgWriter(dataConn, cfg.Batch.Send); w != nil {
			u.writer = w
			u.batchSend = cfg.Batch.Send
		}
	}
	empty := make(map[evs.ProcID]*udpPeerAddrs)
	u.peers.Store(&empty)
	// The readers start first: Close, on a bad peer below, waits for them
	// to close the receive channels.
	u.wg.Add(2)
	go u.readLoop(dataConn, cfg.Batch.Recv, u.dataCh, func(raw []byte) {
		u.deliverFrame(raw, u.dataCh, &u.dataDrop, false)
	})
	// Tokens arrive one per round; batching buys nothing there.
	go u.readLoop(tokConn, 0, u.tokenCh, func(raw []byte) {
		u.deliverFrame(raw, u.tokenCh, &u.tokenDrop, true)
	})
	// Register ourselves: the membership representative starts a new ring
	// by unicasting the initial token to itself.
	if err := u.AddPeer(cfg.Self, u.LocalAddrs()); err != nil {
		u.Close()
		return nil, err
	}
	for id, p := range cfg.Peers {
		if id == cfg.Self {
			continue
		}
		if err := u.AddPeer(id, p); err != nil {
			u.Close()
			return nil, err
		}
	}
	return u, nil
}

func listenUDP(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.ListenUDP("udp", ua)
}

// AddPeer registers (or updates) a peer's addresses. Membership changes
// may add peers at runtime: the peer table is replaced copy-on-write, so
// in-flight sends keep fanning out over their snapshot.
func (u *UDP) AddPeer(id evs.ProcID, p UDPPeer) error {
	da, err := net.ResolveUDPAddr("udp", p.Data)
	if err != nil {
		return fmt.Errorf("transport: peer %d data addr: %w", id, err)
	}
	ta, err := net.ResolveUDPAddr("udp", p.Token)
	if err != nil {
		return fmt.Errorf("transport: peer %d token addr: %w", id, err)
	}
	pa := &udpPeerAddrs{data: da, token: ta}
	pa.raw, pa.rawOK = mkRawAddr(da)
	u.peerMu.Lock()
	old := *u.peers.Load()
	next := make(map[evs.ProcID]*udpPeerAddrs, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = pa
	u.peers.Store(&next)
	u.peerMu.Unlock()
	return nil
}

// LocalAddrs returns the bound listen addresses (useful with :0 ports).
func (u *UDP) LocalAddrs() UDPPeer {
	return UDPPeer{
		Data:  u.dataConn.LocalAddr().String(),
		Token: u.tokConn.LocalAddr().String(),
	}
}

// Syscalls returns cumulative send/receive kernel crossings on the wire —
// the number the batch path exists to shrink. Divide by the frame
// counters for syscalls per frame.
func (u *UDP) Syscalls() (tx, rx uint64) {
	return u.txSysN.Load(), u.rxSysN.Load()
}

func (u *UDP) countTxSys(n int) {
	if n == 0 {
		return
	}
	u.txSysN.Add(uint64(n))
	u.nm.txSys(n)
}

func (u *UDP) countRxSys(n int) {
	if n == 0 {
		return
	}
	u.rxSysN.Add(uint64(n))
	u.nm.rxSys(n)
}

// readLoop drains one socket into a receive channel, one datagram per
// syscall or — when batch > 1 and the platform supports recvmmsg — a
// batch per syscall. Each datagram is handed to deliver, which rents the
// frame's pooled buffer; the fixed slot buffers here are reused across
// reads. The channel is closed when the socket dies (Close).
func (u *UDP) readLoop(conn *net.UDPConn, batch int, ch chan []byte, deliver func(raw []byte)) {
	defer u.wg.Done()
	if batch > 1 {
		if r := newMMsgReader(conn, batch, wire.MaxPayload+1024); r != nil {
			// Hoisted so the hot loop closes over one allocation, not one
			// per syscall (the zero-alloc receive gate measures this).
			visit := func(i, n int) { deliver(r.slot(i)[:n]) }
			for {
				_, sys, ok := r.readBatch(visit)
				u.countRxSys(sys)
				if !ok {
					close(ch)
					return
				}
			}
		}
	}
	buf := make([]byte, wire.MaxPayload+1024)
	for {
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			// Socket closed (or fatal error): stop delivering.
			close(ch)
			return
		}
		u.countRxSys(1)
		deliver(buf[:n])
	}
}

// deliverFrame copies one received datagram into a rented buffer and
// pushes it to the channel; the consumer (the protocol driver) owns it
// from there. When the channel is already full the datagram is dropped
// before renting or copying anything.
func (u *UDP) deliverFrame(raw []byte, ch chan []byte, drops *atomic.Uint64, token bool) {
	if len(ch) == cap(ch) {
		drops.Add(1)
		u.nm.rxDrop()
		u.recordDrop(token)
		return
	}
	frame := bufpool.Get(len(raw))
	copy(frame, raw)
	select {
	case ch <- frame:
		u.nm.rx(token, len(raw))
	default:
		bufpool.Put(frame)
		drops.Add(1)
		u.nm.rxDrop()
		u.recordDrop(token)
	}
}

// recordDrop notes a receiver-overflow drop in the flight recorder.
func (u *UDP) recordDrop(token bool) {
	if u.fl == nil {
		return
	}
	note := "data"
	if token {
		note = "token"
	}
	u.fl.Record(obs.Event{Kind: obs.FlightRxDrop, Note: note})
}

// Multicast implements Transport: the frame is fanned out by unicast to
// every peer's data address, never to ourselves (the protocol
// self-receives its own messages at send time). Send errors are ignored,
// as UDP loss would be; the protocol's retransmission machinery recovers.
// With batching on, the frame is staged in a pooled copy and hits the
// wire at the next flush (batch full, token send, or explicit Flush).
func (u *UDP) Multicast(frame []byte) error {
	if u.closed.Load() {
		return ErrClosed
	}
	snap := u.peers.Load()
	peers := *snap
	if u.writer != nil {
		// One pooled copy per frame, shared across the whole fan-out; the
		// peer snapshot is resolved at flush time from the pointer staged
		// with it.
		cp := bufpool.Get(len(frame))
		copy(cp, frame)
		for id := range peers {
			if id != u.self {
				u.nm.tx(false, len(frame))
			}
		}
		u.sendMu.Lock()
		if u.closed.Load() {
			// Close already recycled the batch; nothing may be staged
			// after it.
			u.sendMu.Unlock()
			bufpool.Put(cp)
			return ErrClosed
		}
		u.pendBuf = append(u.pendBuf, cp)
		u.pendTo = append(u.pendTo, snap)
		if u.nm != nil && len(u.pendBuf) == 1 {
			u.pendSince = time.Now()
		}
		if len(u.pendBuf) >= u.batchSend {
			u.flushLocked()
		}
		u.sendMu.Unlock()
		return nil
	}
	for id, p := range peers {
		if id == u.self {
			continue
		}
		u.nm.tx(false, len(frame))
		_, _ = u.dataConn.WriteToUDP(frame, p.data)
		u.countTxSys(1)
	}
	return nil
}

// Flush implements Flusher: everything staged by send batching hits the
// wire. Safe to call concurrently with sends; a no-op when batching is
// off or nothing is pending.
func (u *UDP) Flush() error {
	if u.writer == nil {
		return nil
	}
	u.sendMu.Lock()
	u.flushLocked()
	u.sendMu.Unlock()
	return nil
}

// flushLocked expands every staged frame into its destinations and
// transmits the whole batch in as few sendmmsg calls as possible. Caller
// holds sendMu. Pooled frame copies are recycled after the syscall
// returns — the kernel has copied them out by then.
func (u *UDP) flushLocked() {
	if len(u.pendBuf) == 0 {
		return
	}
	if u.nm != nil && !u.pendSince.IsZero() {
		u.nm.batchHeld(time.Since(u.pendSince))
		u.pendSince = time.Time{}
	}
	for i, f := range u.pendBuf {
		for id, p := range *u.pendTo[i] {
			if id == u.self || !p.rawOK {
				continue
			}
			u.writer.append(f, &p.raw)
		}
	}
	u.countTxSys(u.writer.writeBatch())
	for i, f := range u.pendBuf {
		bufpool.Put(f)
		u.pendBuf[i] = nil
		u.pendTo[i] = nil
	}
	u.pendBuf = u.pendBuf[:0]
	u.pendTo = u.pendTo[:0]
}

// Unicast implements Transport: send to the peer's token address. Like
// Multicast, it runs lock-free over the peer snapshot. Staged data
// frames are flushed first so the token never overtakes the data it
// covers on the wire.
func (u *UDP) Unicast(to evs.ProcID, frame []byte) error {
	if u.closed.Load() {
		return ErrClosed
	}
	if u.writer != nil {
		_ = u.Flush()
	}
	p := (*u.peers.Load())[to]
	if p == nil {
		// Unknown peer: drop, like the network would for a dead host.
		return nil
	}
	u.nm.tx(true, len(frame))
	_, _ = u.tokConn.WriteToUDP(frame, p.token)
	u.countTxSys(1)
	return nil
}

// Data implements Transport.
func (u *UDP) Data() <-chan []byte { return u.dataCh }

// Token implements Transport.
func (u *UDP) Token() <-chan []byte { return u.tokenCh }

// Drops returns receiver-side channel overflow counts.
func (u *UDP) Drops() Drops {
	return Drops{Data: u.dataDrop.Load(), Token: u.tokenDrop.Load()}
}

// Close shuts both sockets down and waits for the readers to exit. The
// receive channels are closed, and every staged batch frame and
// received-but-unconsumed frame is recycled to bufpool — nothing the
// transport rented stays stranded.
func (u *UDP) Close() error {
	if u.closed.Swap(true) {
		return nil
	}
	// Staged batch frames are dropped, not sent: a closed transport loses
	// in-flight traffic exactly like the network would.
	u.sendMu.Lock()
	for i, f := range u.pendBuf {
		bufpool.Put(f)
		u.pendBuf[i] = nil
		u.pendTo[i] = nil
	}
	u.pendBuf = u.pendBuf[:0]
	u.pendTo = u.pendTo[:0]
	u.sendMu.Unlock()
	err1 := u.dataConn.Close()
	err2 := u.tokConn.Close()
	u.wg.Wait()
	// The readLoops have closed both channels; recycle frames that were
	// received but never consumed. A consumer draining concurrently is
	// fine — each frame is read exactly once, by it or by us.
	for f := range u.dataCh {
		bufpool.Put(f)
	}
	for f := range u.tokenCh {
		bufpool.Put(f)
	}
	if err1 != nil {
		return err1
	}
	return err2
}
