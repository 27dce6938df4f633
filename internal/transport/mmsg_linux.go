//go:build linux && (amd64 || arm64)

// recvmmsg support, raw via syscall.Syscall6 so the module stays
// stdlib-only. One call drains every datagram queued on a socket, up to
// the reader's slot count, without the per-datagram syscall and source
// address allocation of ReadFromUDP — the receive half of where a
// saturated ring spends its time once the protocol hot path itself is
// allocation-free.
//
// Only linux/amd64 and linux/arm64 are wired up; other platforms use the
// portable one-datagram-per-call reader in mmsg_portable.go behind the
// same API.

package transport

import (
	"fmt"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr. On 64-bit targets
// syscall.Msghdr is 8-aligned, so the trailing pad the kernel applies
// falls out of Go's own struct layout.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
	_   [4]byte
}

// mmsgReader drains datagrams in bursts with recvmmsg. Its slots live in
// one anonymous mapping rather than on the Go heap: the heap zeroes (and
// so touches) every slot in full, while the kernel backs a mapped page
// only once a datagram lands in it, so the large per-slot tail a
// datagram never reaches costs no memory.
type mmsgReader struct {
	rc   syscall.RawConn
	slab []byte
	size int
	hdrs []mmsghdr
	iovs []syscall.Iovec
	// ctl holds each slot's control space once readSegments is on (nil
	// before): the kernel reports there the segment size of a datagram
	// it coalesced.
	ctl []byte

	// recvFn is the closure passed to RawConn.Read, built once at
	// construction so the per-burst hot path does not allocate a new
	// closure (and escape its captures) on every syscall. It communicates
	// through the result fields after it.
	recvFn   func(fd uintptr) bool
	n        uintptr
	errno    syscall.Errno
	syscalls int
}

// newMMsgReader maps slots receive slots of size bytes each on conn.
// release unmaps them.
func newMMsgReader(conn packetConn, slots, size int) (*mmsgReader, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	slab, err := syscall.Mmap(-1, 0, slots*size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map receive slots: %w", err)
	}
	r := &mmsgReader{
		rc:   rc,
		slab: slab,
		size: size,
		hdrs: make([]mmsghdr, slots),
		iovs: make([]syscall.Iovec, slots),
	}
	for i := range r.hdrs {
		r.iovs[i] = syscall.Iovec{Base: &slab[i*size], Len: uint64(size)}
		h := &r.hdrs[i].Hdr
		h.Iov = &r.iovs[i]
		h.Iovlen = 1
	}
	r.recvFn = func(fd uintptr) bool {
		r.n, r.errno = r.recv(fd)
		r.syscalls++
		return r.errno != syscall.EAGAIN
	}
	return r, nil
}

// readSegments gives every slot a control buffer for the socket's
// UDP_GRO reports (see segSize). Call it before the first read.
func (r *mmsgReader) readSegments() {
	r.ctl = make([]byte, len(r.hdrs)*groCtlSpace)
	for i := range r.hdrs {
		r.hdrs[i].Hdr.Control = &r.ctl[i*groCtlSpace]
	}
}

// segSize returns the segment size of the datagram in slot i when the
// kernel coalesced it from several (UDP_GRO), or 0.
func (r *mmsgReader) segSize(i int) int {
	if r.ctl == nil || r.hdrs[i].Hdr.Controllen < uint64(syscall.CmsgLen(4)) {
		return 0
	}
	c := r.ctl[i*groCtlSpace:]
	if cm := (*syscall.Cmsghdr)(unsafe.Pointer(&c[0])); cm.Level != solUDP || cm.Type != udpGRO {
		return 0
	}
	return int(*(*int32)(unsafe.Pointer(&c[syscall.CmsgLen(0)])))
}

// recv is one non-blocking recvmmsg into every slot.
func (r *mmsgReader) recv(fd uintptr) (uintptr, syscall.Errno) {
	if r.ctl != nil {
		// The kernel shrinks each slot's control length to what it wrote.
		for i := range r.hdrs {
			r.hdrs[i].Hdr.SetControllen(groCtlSpace)
		}
	}
	n, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(r.hdrs)),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	return n, errno
}

// readBatch blocks until at least one datagram arrives, then drains up to
// the slot count in one recvmmsg. visit(i, n) is called per datagram with
// the slot index and length. It returns the datagram count and the number
// of syscalls spent; ok is false when the socket is closed.
func (r *mmsgReader) readBatch(visit func(i, n int)) (got, syscalls int, ok bool) {
	r.syscalls = 0
	if err := r.rc.Read(r.recvFn); err != nil || r.errno != 0 {
		return 0, r.syscalls, false
	}
	for i := 0; i < int(r.n); i++ {
		visit(i, int(r.hdrs[i].Len))
	}
	return int(r.n), r.syscalls, true
}

// slot returns slot i, valid until the next readBatch.
func (r *mmsgReader) slot(i int) []byte { return r.slab[i*r.size : (i+1)*r.size] }

// release unmaps the slots. Only the goroutine that reads may call it,
// once it has stopped reading.
func (r *mmsgReader) release() {
	// Drop every pointer into the mapping first: the collector must not
	// find one once the address range can be reused.
	r.hdrs, r.iovs, r.ctl = nil, nil, nil
	_ = syscall.Munmap(r.slab) // fails only for a slice Mmap did not return
	r.slab = nil
}
