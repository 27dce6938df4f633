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

// dataSlots and tokenSlots size each socket's receive burst: the most
// datagrams one recvmmsg drains. A token round's burst of data frames
// fits the data slots; tokens arrive one per round. With UDP_GRO on, a
// datagram may hold a whole run of frames, so the data socket reads
// groSlots at a time. A slot's pages are backed only once a datagram
// reaches them: groSlots runs of a default personal window (20 frames of
// ~1.4 KB) back about 56 pages, fewer than the ~80 that dataSlots single
// frames do.
const (
	dataSlots  = 64
	groSlots   = 8
	tokenSlots = 4
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

// UDP is the real-network transport: one socket per frame class, exactly
// as the paper's implementations separate token and data traffic. Data
// frames reach the ring by unicast fan-out — the fallback the paper
// notes Spread provides where IP multicast is unavailable. Multicast
// sends one datagram per peer; Stage (the Stager path) collects a run of
// equal-size frames that Flush sends to each peer as one segmented
// datagram (UDP_SEGMENT), which the kernel cuts back into one datagram
// per frame. Each socket is read a burst at a time: one recvmmsg drains
// every datagram queued on it, and the data socket reads a peer's run
// back whole (UDP_GRO) and splits it into its frames. Where the kernel
// has neither option, every frame is its own datagram.
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

	closed  atomic.Bool
	txSysN  atomic.Uint64
	rxSysN  atomic.Uint64
	wg      sync.WaitGroup
	nm      *netMetrics
	drained *obs.Counter // data frames queued by the token reader's drain
	fl      *obs.Recorder
}

type udpPeerAddrs struct {
	data, token *net.UDPAddr
	// runTo is data for the segmented sends, which take it unboxed.
	runTo netip.AddrPort
}

var _ Stager = (*UDP)(nil)

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
		drained:  cfg.Obs.Counter("transport.udp.rx_drained_at_token"),
		fl:       cfg.Flight,
	}
	var gro bool
	u.gso, gro = openOffload(dataConn)
	slots := dataSlots
	if gro {
		slots = groSlots
	}
	dataRd, err := newMMsgReader(dataConn, slots, slotSize)
	if err != nil {
		dataConn.Close()
		tokConn.Close()
		return nil, fmt.Errorf("transport: data reader: %w", err)
	}
	tokRd, err := newMMsgReader(tokConn, tokenSlots, slotSize)
	if err != nil {
		dataRd.release()
		dataConn.Close()
		tokConn.Close()
		return nil, fmt.Errorf("transport: token reader: %w", err)
	}
	if gro {
		dataRd.readSegments()
	}
	empty := make(map[evs.ProcID]*udpPeerAddrs)
	u.peers.Store(&empty)
	// The readers start first: Close, on a bad peer below, waits for them
	// to close the receive channels. The visits are hoisted so a burst
	// allocates no closure (the zero-alloc receive gate measures this).
	// A coalesced datagram is split into its frames, the last of which may
	// be shorter.
	dataVisit := func(i, n int) {
		raw, seg := dataRd.slot(i)[:n], dataRd.segSize(i)
		for seg > 0 && len(raw) > seg {
			u.deliverFrame(raw[:seg], u.dataCh, false)
			raw = raw[seg:]
		}
		u.deliverFrame(raw, u.dataCh, false)
	}
	tokVisit := func(i, n int) {
		if i == 0 { // the data already on the socket goes first
			got, sys := dataRd.drain(dataVisit)
			u.countRxSys(sys)
			u.drained.Add(uint64(got))
		}
		u.deliverFrame(tokRd.slot(i)[:n], u.tokenCh, true)
	}
	u.wg.Add(2)
	go u.readLoop(dataRd, dataVisit, u.dataCh)
	go u.readLoop(tokRd, tokVisit, u.tokenCh)
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
	dap := da.AddrPort()
	pa := &udpPeerAddrs{data: da, token: ta, runTo: netip.AddrPortFrom(dap.Addr().Unmap(), dap.Port())}
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

// Syscalls returns cumulative send/receive kernel crossings on the wire.
// Divide by the frame counters for syscalls per frame: one per send call
// (a datagram, or a whole segmented run to one peer), and one per
// receive call (a burst, the empty poll before the reader parks, or a
// drain of the data socket ahead of a token).
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

// readLoop drains one socket into its receive channel ch a burst at a
// time. visit hands each datagram to deliverFrame, which copies it out of
// the reader's slot into a rented frame, so the slots are reused across
// reads. When the socket dies (Close) the slots are released, which waits
// out a drain, and only then is ch closed.
func (u *UDP) readLoop(r *mmsgReader, visit func(i, n int), ch chan []byte) {
	defer u.wg.Done()
	for {
		_, sys, ok := r.readBatch(visit)
		u.countRxSys(sys)
		if !ok {
			r.release()
			close(ch)
			return
		}
	}
}

// deliverFrame copies one received datagram into a rented buffer and
// pushes it to the channel; the consumer (the protocol driver) owns it
// from there. When the channel is already full the datagram is dropped
// before renting or copying anything.
func (u *UDP) deliverFrame(raw []byte, ch chan []byte, token bool) {
	if len(ch) == cap(ch) {
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
// every peer's data address, one datagram each, never to ourselves (the
// protocol self-receives its own messages at send time), and is on the
// wire when Multicast returns, behind any staged run. Send errors are
// ignored, as UDP loss would be; the protocol's retransmission machinery
// recovers.
func (u *UDP) Multicast(frame []byte) error {
	if u.closed.Load() {
		return ErrClosed
	}
	u.Flush()
	for id, p := range *u.peers.Load() {
		if id == u.self {
			continue
		}
		u.nm.tx(false, len(frame))
		_, _ = u.dataConn.WriteToUDP(frame, p.data)
		u.countTxSys(1)
	}
	return nil
}

// Unicast implements Transport: send to the peer's token address, behind
// any staged run, so the data staged before a token leaves ahead of it.
// Like Multicast, it runs lock-free over the peer snapshot.
func (u *UDP) Unicast(to evs.ProcID, frame []byte) error {
	if u.closed.Load() {
		return ErrClosed
	}
	u.Flush()
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

// Flush implements Stager: the staged run goes to every peer's data
// address as one sendmsg each, which the kernel cuts into one datagram
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
	for id, p := range *u.peers.Load() {
		if id == u.self {
			continue
		}
		u.nm.txRun(r.n, len(r.buf))
		_, _, err := u.dataConn.WriteMsgUDPAddrPort(r.buf, ctl, p.runTo)
		sys := 1
		for b := r.buf; err != nil && ctl != nil && len(b) > 0; b = b[r.seg:] {
			_, _ = u.dataConn.WriteToUDP(b[:r.seg], p.data)
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

// Close shuts both sockets down and waits for the readers to exit. The
// receive channels are closed, and every received-but-unconsumed frame
// is recycled to bufpool — nothing the transport rented stays stranded.
func (u *UDP) Close() error {
	if u.closed.Swap(true) {
		return nil
	}
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
