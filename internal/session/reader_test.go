package session

import (
	"bytes"
	"math/rand"
	"testing"

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
// names interned — allocates nothing. (A keyed codec's tag check has
// allocations of its own.)
func TestReaderSendAllocFree(t *testing.T) {
	var w bytes.Buffer
	s := Send{Service: evs.Agreed, Groups: []string{"g"}, Payload: make([]byte, 1350)}
	if err := (Codec{}).WriteSend(&w, &s); err != nil {
		t.Fatal(err)
	}
	src := &loopReader{b: w.Bytes()}
	rd := Codec{}.NewReader()
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
