package session

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/group"
)

// loopReader serves the same bytes over and over, as a connection
// carrying an endless stream of one frame.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

func readerFrames() []Frame {
	msg := Message{Sender: group.ClientID{Daemon: 1, Local: 2}, Service: evs.Agreed, Seq: 7,
		Groups: []string{"g"}, Payload: []byte("payload")}
	multi := msg
	multi.Groups = []string{"g", "h", "g2"}
	return []Frame{
		Join{Group: "chat"},
		Send{Service: evs.Agreed, Groups: []string{"a", "b"}, Payload: []byte("hello")},
		Send{Service: evs.Safe, Groups: []string{"x"}},
		msg, multi,
		Seqd{Seq: 3, Frame: msg},
		Seqd{Seq: 4, Frame: multi},
		Seqd{Seq: 5, Frame: View{Group: "g", Members: []group.ClientID{{Daemon: 1, Local: 1}}}},
		Seqd{Seq: 6, Frame: Message{Groups: []string{"g"}}},
	}
}

// TestReaderDecodeEquivalence: a Reader decodes every frame as Decode
// does — a Send into its scratch, a sequenced Message through
// DecodeSeqdMessage — and reading it twice interns the names.
func TestReaderDecodeEquivalence(t *testing.T) {
	rd := Codec{}.NewReader()
	for _, in := range readerFrames() {
		body, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			var got Frame
			if IsSeqdMessage(body) {
				var m Message
				seq, err := rd.DecodeSeqdMessage(body, &m)
				if err != nil {
					t.Fatal(err)
				}
				got = Seqd{Seq: seq, Frame: m}
			} else {
				f, err := rd.Decode(body)
				if err != nil {
					t.Fatal(err)
				}
				if s, ok := f.(*Send); ok {
					f = *s
				}
				got = f
			}
			if !framesEqual(got, want) && !seqdEqual(got, want) {
				t.Fatalf("reader decoded %#v, want %#v", got, want)
			}
		}
	}
}

func seqdEqual(a, b Frame) bool {
	x, ok1 := a.(Seqd)
	y, ok2 := b.(Seqd)
	return ok1 && ok2 && x.Seq == y.Seq && framesEqual(x.Frame, y.Frame)
}

// TestReaderGarbage: on random and truncated bodies the reader's decode
// paths never panic and fail exactly when Decode does.
func TestReaderGarbage(t *testing.T) {
	rd := Codec{}.NewReader()
	check := func(body []byte) {
		_, want := Decode(body)
		var got error
		if IsSeqdMessage(body) {
			_, got = rd.DecodeSeqdMessage(body, &Message{})
		} else {
			_, got = rd.Decode(body)
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("body %x: reader error %v, Decode error %v", body, got, want)
		}
	}
	for _, in := range readerFrames() {
		body, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range body {
			check(body[:i])
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		b := make([]byte, 1+rng.Intn(48))
		rng.Read(b)
		b[0] = byte(KindSeqd)
		if i%2 == 0 && len(b) > 9 {
			b[9] = byte(KindMessage)
		}
		check(b)
		b[0] = byte(KindSend)
		check(b)
	}
}

// TestReaderSendAllocFree: the daemon's per-message read — length prefix,
// verification, a Send decoded into the reader's scratch with its group
// names interned — allocates nothing, keyed or not.
func TestReaderSendAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec Codec
	}{{"plain", Codec{}}, {"keyed", NewCodec([]byte("session key"))}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.codec.Keyed() && raceEnabled {
				t.Skip("the race detector drops pooled MAC states at random")
			}
			var w bytes.Buffer
			s := Send{Service: evs.Agreed, Groups: []string{"g"}, Payload: make([]byte, 1350)}
			if err := tc.codec.WriteSend(&w, &s); err != nil {
				t.Fatal(err)
			}
			src := &loopReader{b: w.Bytes()}
			rd := tc.codec.NewReader()
			read := func() {
				f, buf, err := rd.Read(src)
				if err != nil {
					t.Fatal(err)
				}
				if got := f.(*Send); got.Groups[0] != "g" || len(got.Payload) != 1350 {
					t.Fatalf("read %+v", got)
				}
				bufpool.Put(buf)
			}
			read()
			if n := testing.AllocsPerRun(500, read); n != 0 {
				t.Fatalf("a Send read allocates %.1f times, want 0", n)
			}
		})
	}
}

// countingReader counts the reads that reach the connection under it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// stream encodes frames with codec, back to back as on a connection, and
// returns the bytes with each frame's body.
func stream(t *testing.T, codec Codec, frames ...Frame) ([]byte, [][]byte) {
	t.Helper()
	var w bytes.Buffer
	var bodies [][]byte
	for _, f := range frames {
		if err := codec.WriteFrame(&w, f); err != nil {
			t.Fatal(err)
		}
		body, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return w.Bytes(), bodies
}

// deliveries returns n sequenced 1350 B Messages, the frame a daemon
// writes per delivery.
func deliveries(n int) []Frame {
	frames := make([]Frame, n)
	for i := range frames {
		m := sharedTestMsg()
		m.Payload = bytes.Repeat([]byte{byte(i)}, 1350)
		frames[i] = Seqd{Seq: uint64(i + 1), Frame: m}
	}
	return frames
}

// readBodies reads src through rd until it fails, checking each body
// against want, and returns the error that ended the stream.
func readBodies(t *testing.T, rd *Reader, src io.Reader, want [][]byte) error {
	t.Helper()
	for i := 0; ; i++ {
		body, buf, err := rd.ReadBody(src)
		if err != nil {
			if i != len(want) {
				t.Fatalf("stream ended after %d of %d frames: %v", i, len(want), err)
			}
			return err
		}
		if i >= len(want) || !bytes.Equal(body, want[i]) {
			t.Fatalf("frame %d: read a body of %d bytes that is not the one written", i, len(body))
		}
		bufpool.Put(buf)
	}
}

// TestReaderReadsInBursts: 64 delivery frames cost the connection one
// read per buffer-full (plus the read that finds the end), not two per
// frame.
func TestReaderReadsInBursts(t *testing.T) {
	b, bodies := stream(t, Codec{}, deliveries(64)...)
	src := &countingReader{r: bytes.NewReader(b)}
	if err := readBodies(t, Codec{}.NewReader(), src, bodies); err != io.EOF {
		t.Fatalf("stream ended with %v, want io.EOF", err)
	}
	if limit := (len(b)+readBufSize-1)/readBufSize + 1; src.reads > limit {
		t.Fatalf("64 frames (%d bytes) took %d reads, want <= %d", len(b), src.reads, limit)
	}
}

// TestReaderAnyChunking: however the connection splits the stream — a
// byte at a time, with the error riding the last data, or around a frame
// larger than the read buffer — the reader yields the same frames.
func TestReaderAnyChunking(t *testing.T) {
	big := Send{Service: evs.Agreed, Groups: []string{"g"}, Payload: bytes.Repeat([]byte{7}, 3*readBufSize/2)}
	frames := append(deliveries(3), big, Join{Group: "chat"})
	frames = append(frames, deliveries(2)...)
	for _, codec := range []Codec{{}, NewCodec([]byte("k"))} {
		b, bodies := stream(t, codec, frames...)
		for name, src := range map[string]func() io.Reader{
			"whole":     func() io.Reader { return bytes.NewReader(b) },
			"one byte":  func() io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
			"data+err":  func() io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
			"half read": func() io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		} {
			if err := readBodies(t, codec.NewReader(), src(), bodies); err != io.EOF {
				t.Fatalf("keyed %v, %s: stream ended with %v, want io.EOF", codec.Keyed(), name, err)
			}
		}
	}
}

// TestReaderErrorMidBuffer: a bad frame among buffered good ones surfaces
// its own error, after the frames before it.
func TestReaderErrorMidBuffer(t *testing.T) {
	keyed := NewCodec([]byte("k"))
	b, bodies := stream(t, keyed, deliveries(3)...)
	forged := append([]byte(nil), b...)
	second := 4 + binary.BigEndian.Uint32(b) // offset of the second frame
	forged[second+4] ^= 1
	src := &countingReader{r: bytes.NewReader(forged)}
	if err := readBodies(t, keyed.NewReader(), src, bodies[:1]); err != ErrAuth {
		t.Fatalf("forged second frame: got %v, want ErrAuth", err)
	}
	if src.reads != 1 {
		t.Fatalf("the forged frame took %d reads to find, want 1 (it was buffered)", src.reads)
	}

	first, bodies := stream(t, Codec{}, deliveries(1)...)
	rest, _ := stream(t, Codec{}, deliveries(2)...)
	oversized := binary.BigEndian.AppendUint32(append([]byte(nil), first...), MaxFrame+1)
	oversized = append(oversized, rest...)
	if err := readBodies(t, Codec{}.NewReader(), bytes.NewReader(oversized), bodies); err != ErrTooLarge {
		t.Fatalf("oversized length prefix: got %v, want ErrTooLarge", err)
	}
}

// TestReaderSwitchDropsBuffered: reading from a second connection starts
// clean; nothing the first one left in the buffer leaks into it.
func TestReaderSwitchDropsBuffered(t *testing.T) {
	all := deliveries(5)
	a, aBodies := stream(t, Codec{}, all[:3]...)
	b, bBodies := stream(t, Codec{}, all[3:]...)
	rd := Codec{}.NewReader()
	body, buf, err := rd.ReadBody(bytes.NewReader(a))
	if err != nil || !bytes.Equal(body, aBodies[0]) {
		t.Fatalf("first read: %v", err)
	}
	bufpool.Put(buf)
	if err := readBodies(t, rd, bytes.NewReader(b), bBodies); err != io.EOF {
		t.Fatalf("second connection ended with %v, want io.EOF", err)
	}
}

// TestConcreteEncodersMatch: the unboxed encoders write the bytes the
// Frame-typed ones do.
func TestConcreteEncodersMatch(t *testing.T) {
	s := Send{Service: evs.Safe, Groups: []string{"a", "b"}, Payload: []byte("x")}
	m := sharedTestMsg()
	for _, codec := range []Codec{{}, NewCodec([]byte("k"))} {
		var viaFrame, viaSend bytes.Buffer
		if err := codec.WriteFrame(&viaFrame, s); err != nil {
			t.Fatal(err)
		}
		if err := codec.WriteSend(&viaSend, &s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaFrame.Bytes(), viaSend.Bytes()) {
			t.Fatal("WriteSend and WriteFrame disagree")
		}
	}
	a, errA := AppendEncode([]byte{9}, m)
	b, errB := AppendMessage([]byte{9}, &m)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("AppendMessage and AppendEncode disagree (%v, %v)", errA, errB)
	}
	x, errX := NewShared(m)
	y, errY := NewSharedMessage(&m)
	if errX != nil || errY != nil || !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Fatalf("NewSharedMessage and NewShared disagree (%v, %v)", errX, errY)
	}
	x.Unref()
	y.Unref()
}
