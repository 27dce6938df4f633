//go:build linux && (amd64 || arm64)

// sendmmsg/recvmmsg support, raw via syscall.Syscall6 so the module stays
// stdlib-only. The batch path coalesces the per-token-round burst of data
// frames — up to Batch.Send frames fanned out to every peer — into a
// single kernel crossing, and drains up to Batch.Recv datagrams per
// receive syscall, which is where a saturated ring spends most of its
// time once the protocol hot path itself is allocation-free.
//
// Only linux/amd64 and linux/arm64 are wired up; other platforms use the
// portable single-syscall fallback in mmsg_portable.go with identical
// semantics (the batch is still applied, one write per destination).

package transport

import (
	"encoding/binary"
	"net"
	"syscall"
	"unsafe"
)

// mmsgAvailable reports whether the platform batches syscalls for real.
// The portable fallback keeps the API but pays one syscall per datagram.
const mmsgAvailable = true

// mmsghdr mirrors the kernel's struct mmsghdr. On 64-bit targets
// syscall.Msghdr is 8-aligned, so the trailing pad the kernel applies
// falls out of Go's own struct layout.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
	_   [4]byte
}

// rawAddr is a precomputed sockaddr blob for sendmmsg's msg_name.
type rawAddr struct {
	buf [syscall.SizeofSockaddrInet6]byte
	len uint32
}

// mkRawAddr encodes a resolved UDP address as a kernel sockaddr. The
// second return is false for addresses sendmmsg cannot name (nil IP).
func mkRawAddr(a *net.UDPAddr) (rawAddr, bool) {
	var r rawAddr
	if a == nil {
		return r, false
	}
	if ip4 := a.IP.To4(); ip4 != nil {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&r.buf[0]))
		sa.Family = syscall.AF_INET
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:], uint16(a.Port))
		copy(sa.Addr[:], ip4)
		r.len = syscall.SizeofSockaddrInet4
		return r, true
	}
	if ip16 := a.IP.To16(); ip16 != nil {
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&r.buf[0]))
		sa.Family = syscall.AF_INET6
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:], uint16(a.Port))
		copy(sa.Addr[:], ip16)
		if a.Zone != "" {
			if ifi, err := net.InterfaceByName(a.Zone); err == nil {
				sa.Scope_id = uint32(ifi.Index)
			}
		}
		r.len = syscall.SizeofSockaddrInet6
		return r, true
	}
	return r, false
}

// mmsgWriter batches datagram sends over one socket with sendmmsg. Staged
// frames and addresses are kept in parallel slices; the msghdr views are
// built immediately before the syscall, when no further append can move
// the backing arrays.
type mmsgWriter struct {
	rc     syscall.RawConn
	frames [][]byte
	addrs  []*rawAddr
	hdrs   []mmsghdr
	iovs   []syscall.Iovec

	// sendFn is the closure passed to RawConn.Write, built once so the
	// per-flush hot path does not allocate a closure (and escape its
	// captures) every syscall. off/chunk are its inputs, n/errno/syscalls
	// its outputs.
	sendFn     func(fd uintptr) bool
	off, chunk int
	n          uintptr
	errno      syscall.Errno
	syscalls   int
}

func newMMsgWriter(conn *net.UDPConn, batch int) *mmsgWriter {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	w := &mmsgWriter{rc: rc}
	w.sendFn = func(fd uintptr) bool {
		w.n, _, w.errno = syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&w.hdrs[w.off])), uintptr(w.chunk),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		w.syscalls++
		return w.errno != syscall.EAGAIN
	}
	return w
}

// append stages one datagram. Both the frame bytes and addr must stay
// alive and unmodified until writeBatch returns.
func (w *mmsgWriter) append(frame []byte, addr *rawAddr) {
	w.frames = append(w.frames, frame)
	w.addrs = append(w.addrs, addr)
}

func (w *mmsgWriter) staged() int { return len(w.frames) }

// maxMsgsPerCall bounds one sendmmsg vector (the kernel clamps at
// UIO_MAXIOV = 1024 anyway).
const maxMsgsPerCall = 1024

// writeBatch transmits every staged datagram and returns how many
// syscalls it took (normally 1). A datagram the kernel refuses is
// dropped like UDP loss and the rest still go out, exactly as the
// portable fallback's per-datagram writes behave; the protocol's
// retransmission machinery recovers. Only a closed socket drops the rest.
func (w *mmsgWriter) writeBatch() int {
	total := len(w.frames)
	if total == 0 {
		return 0
	}
	if cap(w.hdrs) < total {
		w.hdrs = make([]mmsghdr, total)
		w.iovs = make([]syscall.Iovec, total)
	}
	hdrs := w.hdrs[:total]
	iovs := w.iovs[:total]
	for i, f := range w.frames {
		iovs[i] = syscall.Iovec{Base: &f[0], Len: uint64(len(f))}
		hdrs[i] = mmsghdr{}
		h := &hdrs[i].Hdr
		h.Name = &w.addrs[i].buf[0]
		h.Namelen = w.addrs[i].len
		h.Iov = &iovs[i]
		h.Iovlen = 1
	}
	w.syscalls = 0
	w.off = 0
	for w.off < total {
		w.chunk = total - w.off
		if w.chunk > maxMsgsPerCall {
			w.chunk = maxMsgsPerCall
		}
		if w.rc.Write(w.sendFn) != nil {
			break // socket closed: drop the rest, like loss
		}
		if w.errno != 0 || w.n == 0 {
			// sendmmsg stops at the first datagram it cannot send (an
			// unreachable address family, say) and reports that datagram's
			// error on its own: skip it.
			w.off++
			continue
		}
		w.off += int(w.n)
	}
	w.frames = w.frames[:0]
	w.addrs = w.addrs[:0]
	return w.syscalls
}

// mmsgReader drains datagrams in batches with recvmmsg.
type mmsgReader struct {
	rc    syscall.RawConn
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	slots [][]byte

	// recvFn is the closure passed to RawConn.Read, built once at
	// construction so the per-batch hot path does not allocate a new
	// closure (and escape its captures) on every syscall. It communicates
	// through the n/errno/syscalls fields.
	recvFn   func(fd uintptr) bool
	n        uintptr
	errno    syscall.Errno
	syscalls int
}

// newMMsgReader sizes batch receive slots of frameSize bytes each.
func newMMsgReader(conn *net.UDPConn, batch, frameSize int) *mmsgReader {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	r := &mmsgReader{
		rc:    rc,
		hdrs:  make([]mmsghdr, batch),
		iovs:  make([]syscall.Iovec, batch),
		slots: make([][]byte, batch),
	}
	for i := range r.slots {
		r.slots[i] = make([]byte, frameSize)
		r.iovs[i] = syscall.Iovec{Base: &r.slots[i][0], Len: uint64(frameSize)}
		h := &r.hdrs[i].Hdr
		h.Iov = &r.iovs[i]
		h.Iovlen = 1
	}
	r.recvFn = func(fd uintptr) bool {
		r.n, _, r.errno = syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(r.hdrs)),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		r.syscalls++
		return r.errno != syscall.EAGAIN
	}
	return r
}

// readBatch blocks until at least one datagram arrives, then drains up to
// the batch size in one recvmmsg. visit(i, n) is called per datagram with
// the slot index and length. It returns the datagram count and the number
// of syscalls spent; ok is false when the socket is closed.
func (r *mmsgReader) readBatch(visit func(i, n int)) (got, syscalls int, ok bool) {
	r.syscalls = 0
	rerr := r.rc.Read(r.recvFn)
	if rerr != nil || r.errno != 0 {
		return 0, r.syscalls, false
	}
	for i := 0; i < int(r.n); i++ {
		visit(i, int(r.hdrs[i].Len))
	}
	return int(r.n), r.syscalls, true
}

func (r *mmsgReader) slot(i int) []byte { return r.slots[i] }
