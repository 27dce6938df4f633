package main

import (
	"encoding/binary"
	"fmt"
	"time"
)

// reclog is an append-only log of fixed-size records kept outside the Go
// heap. The system under test keeps a few megabytes live and collects
// about 75 times a second at saturation; a hundred megabytes of benchmark
// logs on the same heap would raise the collector's trigger until it ran
// a quarter as often, and cpu_us_per_msg, the GC figures and the tail
// would describe the benchmark instead of the program.
type reclog struct {
	buf  []byte
	size int // bytes per record
	n    int // records written
	full bool
	free func()
}

// logRate is the messages per second the logs make room for, about four
// times what the stack reaches today. Room not used costs nothing.
const logRate = 200000

// newReclog makes room for span's worth of records at rate per second.
func newReclog(recSize int, span time.Duration, rate int) (*reclog, error) {
	records := int(span.Seconds()*float64(rate)) + 4096
	buf, free, err := offHeap(records * recSize)
	if err != nil {
		return nil, fmt.Errorf("allocate log: %w", err)
	}
	return &reclog{buf: buf, size: recSize, free: free}, nil
}

// slot returns the next record to fill, or nil once the log is full.
func (l *reclog) slot() []byte {
	end := (l.n + 1) * l.size
	if end > len(l.buf) {
		l.full = true
		return nil
	}
	l.n++
	return l.buf[end-l.size : end]
}

func (l *reclog) record(i int) []byte { return l.buf[i*l.size : (i+1)*l.size] }

const (
	sendRecSize = 32
	recvRecSize = 24
)

func putSend(b []byte, r sendRec) {
	binary.LittleEndian.PutUint64(b[0:], uint64(r.due))
	binary.LittleEndian.PutUint64(b[8:], uint64(r.start))
	binary.LittleEndian.PutUint64(b[16:], uint64(r.end))
	b[24] = r.groupIdx
	b[25] = 0
	if r.failed {
		b[25] = 1
	}
}

func getSend(b []byte) sendRec {
	return sendRec{
		due:      time.Duration(binary.LittleEndian.Uint64(b[0:])),
		start:    time.Duration(binary.LittleEndian.Uint64(b[8:])),
		end:      time.Duration(binary.LittleEndian.Uint64(b[16:])),
		groupIdx: b[24],
		failed:   b[25] != 0,
	}
}

func putRecv(b []byte, r recvRec) {
	binary.LittleEndian.PutUint64(b[0:], r.key)
	binary.LittleEndian.PutUint64(b[8:], uint64(r.at))
	binary.LittleEndian.PutUint64(b[16:], r.seq)
}

func getRecv(b []byte) recvRec {
	return recvRec{
		key: binary.LittleEndian.Uint64(b[0:]),
		at:  time.Duration(binary.LittleEndian.Uint64(b[8:])),
		seq: binary.LittleEndian.Uint64(b[16:]),
	}
}
