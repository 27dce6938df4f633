//go:build !(linux && (amd64 || arm64))

// Portable receive for platforms without the raw recvmmsg wiring (see
// mmsg_linux.go): the same reader API, one datagram per call.

package transport

const mmsgAvailable = false

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

// drain reads nothing: there is no non-blocking read here.
func (r *mmsgReader) drain(visit func(i, n int)) (got, syscalls int) { return 0, 0 }

func (r *mmsgReader) slot(i int) []byte { return r.buf }

func (r *mmsgReader) release() {}
