package transport

import (
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/obs"
	"accelring/internal/wire"
)

// UDPPeer holds a participant's receive address.
type UDPPeer struct {
	// Data is the host:port of the participant's ring socket, which
	// receives every frame class.
	Data string
	// Token is ignored: a ring has one socket, at Data. The benchmark
	// harness still sets it, and the field goes with the next change to
	// that harness's contract.
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

// Shift offsets p's port by `by` (see ShiftPort).
func (p UDPPeer) Shift(by int) (UDPPeer, error) {
	data, err := ShiftPort(p.Data, by)
	if err != nil {
		return UDPPeer{}, err
	}
	return UDPPeer{Data: data}, nil
}

// UDPConfig configures a UDP transport.
type UDPConfig struct {
	// Self is the local participant.
	Self evs.ProcID
	// Listen holds the local listen address.
	Listen UDPPeer
	// Peers maps every other participant to its addresses. Self may be
	// present and is ignored.
	Peers map[evs.ProcID]UDPPeer
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

// dataSlots sizes the socket's receive burst: the most datagrams one
// recvmmsg drains. A token round's burst of data frames and its token
// fit. With UDP_GRO on, a datagram may hold a whole run of frames, so the
// socket reads groSlots at a time. A slot's pages are backed only once a
// datagram reaches them: groSlots runs of a default personal window (20
// frames of ~1.4 KB) back about 56 pages, fewer than the ~80 that
// dataSlots single frames do.
const (
	dataSlots = 64
	groSlots  = 8
)

// slotSize holds the largest datagram a peer sends, a coalesced run
// included.
const slotSize = wire.MaxPayload + 1024

// maxRunSegs and maxRunBytes bound a staged run: the kernel's segment
// limit per UDP_SEGMENT send, and the largest UDP payload IPv4 carries.
const (
	maxRunSegs  = 64
	maxRunBytes = 65507
)

// packetConn is the datagram socket an mmsgReader drains: a
// *net.UDPConn here.
type packetConn interface {
	syscall.Conn
	Read(b []byte) (int, error)
}

// UDP is the real-network transport: one socket per ring, which every
// frame class shares, read by one goroutine that queues each frame on
// Data or Token by its wire type, in the order the kernel received them.
// So data that arrived before a token is on Data before the token is on
// Token. Data frames reach the ring by unicast fan-out — the fallback the
// paper notes Spread provides where IP multicast is unavailable.
// Multicast sends one datagram per peer; Stage (the Stager path) collects
// a run of equal-size frames that Flush sends to each peer as one
// segmented datagram (UDP_SEGMENT), which the kernel cuts back into one
// datagram per frame. The socket is read a burst at a time: one recvmmsg
// drains every datagram queued on it, a peer's run read back whole
// (UDP_GRO) and split into its frames. Where the kernel has neither
// option, every frame is its own datagram.
type UDP struct {
	self evs.ProcID
	conn *net.UDPConn

	// peers is an atomically swapped copy-on-write snapshot: senders load
	// it and fan out without holding any lock across socket writes, so a
	// concurrent AddPeer (membership change) never stalls the hot path.
	// peerMu serializes the writers only. Each address is unmapped, as
	// the socket's sends take it.
	peerMu sync.Mutex
	peers  atomic.Pointer[map[evs.ProcID]netip.AddrPort]

	dataCh  chan []byte
	tokenCh chan []byte

	// gso is the UDP_SEGMENT control message a run is sent with (nil:
	// the kernel has none, so Stage multicasts); run is the sender's
	// staged run.
	gso []byte
	run struct {
		buf []byte // the run's frames, back to back
		seg int    // each frame's length
		n   int    // frames in buf
	}

	closed atomic.Bool
	txSysN atomic.Uint64
	rxSysN atomic.Uint64
	wg     sync.WaitGroup
	nm     *netMetrics
	fl     *obs.Recorder
}

var _ Stager = (*UDP)(nil)

// NewUDP opens the socket and starts its reader goroutine.
func NewUDP(cfg UDPConfig) (*UDP, error) {
	if cfg.Self == 0 {
		return nil, fmt.Errorf("transport: udp requires Self")
	}
	conn, err := listenUDP(cfg.Listen.Data)
	if err != nil {
		return nil, fmt.Errorf("transport: socket: %w", err)
	}
	// A large receive buffer, as production Spread configures. An error
	// is non-fatal: the OS may clamp.
	_ = conn.SetReadBuffer(4 << 20)

	u := &UDP{
		self:    cfg.Self,
		conn:    conn,
		dataCh:  make(chan []byte, dataChanCap),
		tokenCh: make(chan []byte, tokenChanCap),
		nm:      newNetMetrics(cfg.Obs, "transport.udp."),
		fl:      cfg.Flight,
	}
	var gro bool
	u.gso, gro = openOffload(conn)
	slots := dataSlots
	if gro {
		slots = groSlots
	}
	rd, err := newMMsgReader(conn, slots, slotSize)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: reader: %w", err)
	}
	if gro {
		rd.readSegments()
	}
	empty := make(map[evs.ProcID]netip.AddrPort)
	u.peers.Store(&empty)
	// The reader starts first: Close, on a bad peer below, waits for it
	// to close the receive channels.
	u.wg.Add(1)
	go u.readLoop(rd)
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

// AddPeer registers (or updates) a peer's address. Membership changes
// may add peers at runtime: the peer table is replaced copy-on-write, so
// in-flight sends keep fanning out over their snapshot.
func (u *UDP) AddPeer(id evs.ProcID, p UDPPeer) error {
	a, err := net.ResolveUDPAddr("udp", p.Data)
	if err != nil {
		return fmt.Errorf("transport: peer %d addr: %w", id, err)
	}
	ap := a.AddrPort()
	u.peerMu.Lock()
	old := *u.peers.Load()
	next := make(map[evs.ProcID]netip.AddrPort, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	u.peers.Store(&next)
	u.peerMu.Unlock()
	return nil
}

// LocalAddrs returns the bound listen address (useful with :0 ports).
func (u *UDP) LocalAddrs() UDPPeer {
	return UDPPeer{Data: u.conn.LocalAddr().String()}
}

// Syscalls returns cumulative send/receive kernel crossings on the wire.
// Divide by the frame counters for syscalls per frame: one per send call
// (a datagram, or a whole segmented run to one peer), and one per
// receive call (a burst, or the empty poll before the reader parks).
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

// readLoop drains the socket into the receive channels a burst at a
// time. visit hands each datagram to deliverRun, which copies its frames
// out of the reader's slot into rented frames, so the slots are reused
// across reads. When the socket dies (Close) the slots are released and
// both channels closed.
func (u *UDP) readLoop(r *mmsgReader) {
	defer u.wg.Done()
	// Built once, so a burst allocates no closure (the zero-alloc receive
	// gate measures this).
	visit := func(i, n int) { u.deliverRun(r.slot(i)[:n], r.segSize(i)) }
	for {
		_, sys, ok := r.readBatch(visit)
		u.countRxSys(sys)
		if !ok {
			r.release()
			close(u.dataCh)
			close(u.tokenCh)
			return
		}
	}
}

// deliverRun queues the frames of one received datagram in order: a
// datagram the kernel coalesced from a run (seg > 0) holds frames of seg
// bytes, the last of which may be shorter. A short last segment may be a
// token the same sender sent after the run, so each frame is routed on
// its own.
func (u *UDP) deliverRun(raw []byte, seg int) {
	for seg > 0 && len(raw) > seg {
		u.deliverFrame(raw[:seg])
		raw = raw[seg:]
	}
	u.deliverFrame(raw)
}

// deliverFrame copies one received frame into a rented buffer and pushes
// it to the channel of its class: tokens and commit tokens to Token,
// everything else to Data. The consumer (the protocol driver) owns it
// from there. When the channel is full the frame is dropped before
// renting or copying anything; otherwise the send cannot block, since
// the reader is each channel's only sender.
func (u *UDP) deliverFrame(raw []byte) {
	ch, token := u.dataCh, false
	if t, _ := wire.PeekType(raw); t == wire.FrameToken || t == wire.FrameCommit {
		ch, token = u.tokenCh, true
	}
	if len(ch) == cap(ch) {
		u.nm.rxDrop()
		u.recordDrop(token)
		return
	}
	frame := bufpool.Get(len(raw))
	copy(frame, raw)
	ch <- frame
	u.nm.rx(token, len(raw))
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
// every peer, one datagram each, never to ourselves (the protocol
// self-receives its own messages at send time), and is on the wire when
// Multicast returns, behind any staged run. Send errors are ignored, as
// UDP loss would be; the protocol's retransmission machinery recovers.
func (u *UDP) Multicast(frame []byte) error {
	if u.closed.Load() {
		return ErrClosed
	}
	u.Flush()
	for id, to := range *u.peers.Load() {
		if id == u.self {
			continue
		}
		u.nm.tx(false, len(frame))
		_, _ = u.conn.WriteToUDPAddrPort(frame, to)
		u.countTxSys(1)
	}
	return nil
}

// Unicast implements Transport: send to the peer, behind any staged run,
// so the data staged before a token leaves ahead of it and reaches the
// peer's socket first. Like Multicast, it runs lock-free over the peer
// snapshot.
func (u *UDP) Unicast(to evs.ProcID, frame []byte) error {
	if u.closed.Load() {
		return ErrClosed
	}
	u.Flush()
	addr, ok := (*u.peers.Load())[to]
	if !ok {
		// Unknown peer: drop, like the network would for a dead host.
		return nil
	}
	u.nm.tx(true, len(frame))
	_, _ = u.conn.WriteToUDPAddrPort(frame, addr)
	u.countTxSys(1)
	return nil
}

// Stage implements Stager: frame joins the staged run, which is flushed
// first when frame's length differs from the run's or the run is full
// (maxRunSegs frames, maxRunBytes bytes). Without UDP_SEGMENT it is
// Multicast.
func (u *UDP) Stage(frame []byte) error {
	if u.gso == nil {
		return u.Multicast(frame)
	}
	if u.closed.Load() {
		return ErrClosed
	}
	r := &u.run
	if r.n > 0 && (len(frame) != r.seg || r.n == maxRunSegs || len(r.buf)+len(frame) > maxRunBytes) {
		u.Flush()
	}
	if r.buf == nil {
		r.buf = make([]byte, 0, maxRunBytes)
	}
	r.buf = append(r.buf, frame...)
	r.seg = len(frame)
	r.n++
	return nil
}

// Flush implements Stager: the staged run goes to every peer as one
// sendmsg each, which the kernel cuts into one datagram
// per frame. A peer the segmented send fails for (one the socket's
// family cannot reach, or a route the kernel cannot segment on) gets
// each frame on its own.
func (u *UDP) Flush() {
	r := &u.run
	if r.n == 0 {
		return
	}
	var ctl []byte // a run of one is a plain datagram
	if r.n > 1 {
		ctl = u.gso
		setSegment(ctl, r.seg)
	}
	for id, to := range *u.peers.Load() {
		if id == u.self {
			continue
		}
		u.nm.txRun(r.n, len(r.buf))
		_, _, err := u.conn.WriteMsgUDPAddrPort(r.buf, ctl, to)
		sys := 1
		for b := r.buf; err != nil && ctl != nil && len(b) > 0; b = b[r.seg:] {
			_, _ = u.conn.WriteToUDPAddrPort(b[:r.seg], to)
			sys++
		}
		u.countTxSys(sys)
	}
	r.buf, r.n = r.buf[:0], 0
}

// Data implements Transport.
func (u *UDP) Data() <-chan []byte { return u.dataCh }

// Token implements Transport.
func (u *UDP) Token() <-chan []byte { return u.tokenCh }

// Close shuts the socket down and waits for the reader to exit. The
// receive channels are closed, and every received-but-unconsumed frame
// is recycled to bufpool — nothing the transport rented stays stranded.
func (u *UDP) Close() error {
	if u.closed.Swap(true) {
		return nil
	}
	err := u.conn.Close()
	u.wg.Wait()
	// The readLoop has closed both channels; recycle frames that were
	// received but never consumed. A consumer draining concurrently is
	// fine — each frame is read exactly once, by it or by us.
	for f := range u.dataCh {
		bufpool.Put(f)
	}
	for f := range u.tokenCh {
		bufpool.Put(f)
	}
	return err
}
