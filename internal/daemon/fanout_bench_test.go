package daemon

// The fan-out figure: one publisher's message delivered to F subscriber
// sessions over real TCP loopback connections through the production
// outbox and frameWriter — the frame body is encoded once, every outbox
// queues a reference, and each writer drains up to writerBatch frames per
// wakeup into a single vectored write.
//
// Reported metrics: frames/s across all subscribers, and write
// syscalls/frame (writev flushes over frames delivered). A developer
// tool (EXPERIMENTS.md has the command line); the tracked figures are the
// end-to-end benchmark's daemon.* per-layer rows.

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"accelring/internal/evs"
	"accelring/internal/session"
)

// fanoutBench is one subscriber fleet: TCP loopback conns with discard
// readers, one outbox and one writer goroutine per subscriber.
type fanoutBench struct {
	outs     []*outbox
	wg       sync.WaitGroup
	closers  []io.Closer
	syscalls atomic.Uint64 // writev flushes issued
}

func newFanoutBench(b *testing.B, subs int) *fanoutBench {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	fb := &fanoutBench{closers: []io.Closer{ln}}
	accepted := make(chan net.Conn)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c) //nolint:errcheck // discard reader
			accepted <- c
		}
	}()
	for i := 0; i < subs; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		fb.closers = append(fb.closers, conn, <-accepted)
		o := newOutbox(256, 1<<30, 1<<30, 64)
		if !o.attach(conn, 0, nil) {
			b.Fatal("attach refused")
		}
		fb.outs = append(fb.outs, o)
		fb.wg.Add(1)
		go fb.writer(o)
	}
	return fb
}

func (fb *fanoutBench) writer(o *outbox) {
	defer fb.wg.Done()
	w := newFrameWriter()
	for {
		conn, frames, ok := o.nextBatch(w.frames[:0], writerBatch)
		if !ok {
			return
		}
		err := w.flush(conn, session.Codec{}, frames)
		releaseBatch(frames)
		if err != nil {
			return
		}
		fb.syscalls.Add(1)
		o.wroteBatch(conn, frames)
	}
}

// drainWait blocks until every outbox has written its whole backlog.
func (fb *fanoutBench) drainWait() {
	for _, o := range fb.outs {
		for !o.flushed() {
			runtime.Gosched()
		}
	}
}

func (fb *fanoutBench) close() {
	for _, o := range fb.outs {
		o.shutdown()
	}
	fb.wg.Wait()
	for _, c := range fb.closers {
		c.Close()
	}
}

func benchFanout(b *testing.B, subs int) {
	fb := newFanoutBench(b, subs)
	defer fb.close()
	payload := make([]byte, 256)
	var msg session.Frame = session.Message{Service: evs.Agreed, Groups: []string{"fan"}, Payload: payload}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh, err := session.NewShared(msg)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range fb.outs {
			o.enqueue(delivery{sh: sh})
		}
		sh.Unref()
		if i%1024 == 1023 {
			fb.drainWait() // bound the in-flight backlog
		}
	}
	fb.drainWait()
	b.StopTimer()
	frames := float64(b.N) * float64(subs)
	b.ReportMetric(frames/b.Elapsed().Seconds(), "frames/s")
	b.ReportMetric(float64(fb.syscalls.Load())/frames, "syscalls/frame")
}

func BenchmarkFanout(b *testing.B) {
	for _, subs := range []int{16, 64} {
		b.Run(fmt.Sprintf("encodeonce/subs=%d/batch=%d", subs, writerBatch), func(b *testing.B) {
			benchFanout(b, subs)
		})
	}
}
