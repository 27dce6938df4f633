//go:build !(linux && (amd64 || arm64))

// Portable receive for platforms without the raw recvmmsg wiring (see
// mmsg_linux.go): the same reader API, one datagram per call. Nor is
// there segmentation offload (offload_linux.go): every frame is its own
// datagram both ways.

package transport

import "net"

// mmsgReader reads one datagram per syscall into its single slot.
type mmsgReader struct {
	conn packetConn
	buf  []byte
}

func newMMsgReader(conn packetConn, slots, size int) (*mmsgReader, error) {
	return &mmsgReader{conn: conn, buf: make([]byte, size)}, nil
}

func (r *mmsgReader) readBatch(visit func(i, n int)) (got, syscalls int, ok bool) {
	n, err := r.conn.Read(r.buf)
	if err != nil {
		return 0, 1, false
	}
	visit(0, n)
	return 1, 1, true
}

func (r *mmsgReader) slot(i int) []byte { return r.buf }

// segSize reports no coalesced datagram: UDP_GRO is never on here.
func (r *mmsgReader) segSize(i int) int { return 0 }

func (r *mmsgReader) release() {}

// readSegments has nothing to read: UDP_GRO is never on here.
func (r *mmsgReader) readSegments() {}

// offloadOff has nothing to turn off here.
var offloadOff bool

// openOffload finds neither UDP_SEGMENT nor UDP_GRO here.
func openOffload(*net.UDPConn) (gso []byte, gro bool) { return nil, false }

func setSegment([]byte, int) {}
