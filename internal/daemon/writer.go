package daemon

import (
	"encoding/binary"
	"net"

	"accelring/internal/session"
	"accelring/internal/wire"
)

// frameWriter assembles one outbox batch into a single vectored write.
// Per-frame bytes that differ per session — the 4-byte length prefix,
// the Seqd wrapper (kind + sequence), and the MAC when keyed — are
// appended to a reusable scratch arena; the encode-once shared bodies of
// sequenced frames are referenced in place, so the payload bytes of a
// fan-out delivery go to the socket straight from the one buffer all
// subscribers share. Control frames (Welcome, Throttle, Detach) are
// encoded into the arena.
//
// The arena only ever appends within a batch: subslices handed to the
// iovec stay valid even if a growth reallocates the backing, because the
// already-written bytes are never touched again. One frameWriter belongs
// to one sessionWriter goroutine; it is not safe for concurrent use.
type frameWriter struct {
	scratch []byte      // per-batch arena: headers, control encodes, MACs
	bufs    net.Buffers // iovec under assembly
	// vec is the header WriteTo consumes; as a field it does not escape to
	// the heap on every flush the way a local copy of bufs would.
	vec    net.Buffers
	frames []seqFrame // peek buffer handed to nextBatch; never outgrows writerBatch
}

// seqdHdrLen is the per-frame scratch header for a shared body: 4-byte
// length prefix + Seqd kind byte + 8-byte sequence.
const seqdHdrLen = 4 + 1 + 8

func newFrameWriter() *frameWriter {
	return &frameWriter{
		scratch: make([]byte, 0, writerBatch*(seqdHdrLen+wire.MacLen)+256),
		bufs:    make(net.Buffers, 0, 3*writerBatch),
		frames:  make([]seqFrame, 0, writerBatch),
	}
}

// flush writes every peeked frame to conn as one vectored write
// (net.Buffers uses writev on TCP and unix sockets), framing each one
// exactly as codec.WriteFrame would: length prefix, Seqd wrapper for
// sequenced frames, optional MAC trailer when keyed.
func (w *frameWriter) flush(conn net.Conn, codec session.Codec, frames []seqFrame) error {
	auth := codec.Auth()
	w.scratch = w.scratch[:0]
	bufs := w.bufs[:0]
	for _, sf := range frames {
		start := len(w.scratch)
		if sf.seq == 0 {
			w.scratch = append(w.scratch, 0, 0, 0, 0) // length prefix backfilled below
			var err error
			if w.scratch, err = session.AppendEncode(w.scratch, sf.ctl); err != nil {
				return err
			}
			if auth != nil {
				w.scratch = auth.SumParts(w.scratch, w.scratch[start+4:])
			}
			binary.BigEndian.PutUint32(w.scratch[start:], uint32(len(w.scratch)-start-4))
			bufs = append(bufs, w.scratch[start:])
			continue
		}
		body := sf.sh.Bytes()
		total := seqdHdrLen - 4 + len(body) + auth.Overhead()
		w.scratch = binary.BigEndian.AppendUint32(w.scratch, uint32(total))
		w.scratch = append(w.scratch, byte(session.KindSeqd))
		w.scratch = binary.BigEndian.AppendUint64(w.scratch, sf.seq)
		hdr := w.scratch[start : start+seqdHdrLen]
		if auth == nil {
			bufs = append(bufs, hdr, body)
		} else {
			mstart := len(w.scratch)
			w.scratch = auth.SumParts(w.scratch, hdr[4:], body)
			bufs = append(bufs, hdr, body, w.scratch[mstart:])
		}
	}
	w.bufs = bufs // keep the (possibly grown) backing for the next batch
	w.vec = bufs  // WriteTo consumes its receiver; spend a copy of the header
	_, err := w.vec.WriteTo(conn)
	w.vec = nil
	return err
}
