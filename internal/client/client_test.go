package client

import (
	"bytes"
	"net"
	"testing"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/session"
)

// fakeDaemon accepts one session over a pipe and lets tests script the
// daemon side of the protocol.
func fakeDaemon(t *testing.T) (net.Conn, *Client) {
	t.Helper()
	clientSide, daemonSide := net.Pipe()
	done := make(chan *Client, 1)
	errCh := make(chan error, 1)
	go func() {
		c, err := Attach(clientSide, "test-client")
		errCh <- err
		done <- c
	}()
	f, err := session.ReadFrame(daemonSide)
	if err != nil {
		t.Fatal(err)
	}
	if hello, ok := f.(session.Connect); !ok || hello.Name != "test-client" {
		t.Fatalf("handshake frame = %#v", f)
	}
	if err := session.WriteFrame(daemonSide, session.Welcome{
		Client: group.ClientID{Daemon: 5, Local: 9},
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	c := <-done
	t.Cleanup(func() { c.Close(); daemonSide.Close() })
	return daemonSide, c
}

func TestAttachHandshake(t *testing.T) {
	_, c := fakeDaemon(t)
	if c.ID() != (group.ClientID{Daemon: 5, Local: 9}) {
		t.Fatalf("id = %v", c.ID())
	}
}

func TestAttachRejectsBadHandshake(t *testing.T) {
	clientSide, daemonSide := net.Pipe()
	defer daemonSide.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := Attach(clientSide, "x")
		errCh <- err
	}()
	if _, err := session.ReadFrame(daemonSide); err != nil {
		t.Fatal(err)
	}
	// Send a non-welcome frame.
	if err := session.WriteFrame(daemonSide, session.Error{Msg: "nope"}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("Attach accepted a non-welcome handshake")
	}
}

func TestRequestsReachDaemon(t *testing.T) {
	daemonSide, c := fakeDaemon(t)
	// net.Pipe writes are synchronous, so drain the daemon side into a
	// channel while the client issues requests.
	frames := make(chan session.Frame, 8)
	go func() {
		for {
			f, err := session.ReadFrame(daemonSide)
			if err != nil {
				close(frames)
				return
			}
			frames <- f
		}
	}()
	next := func() session.Frame {
		select {
		case f := <-frames:
			return f
		case <-time.After(2 * time.Second):
			t.Fatal("no frame from client")
			return nil
		}
	}
	if err := c.Join("g1"); err != nil {
		t.Fatal(err)
	}
	if j, ok := next().(session.Join); !ok || j.Group != "g1" {
		t.Fatalf("got %#v", j)
	}
	if err := c.Multicast(evs.Safe, []byte("pay"), "g1", "g2"); err != nil {
		t.Fatal(err)
	}
	snd, ok := next().(session.Send)
	if !ok || snd.Service != evs.Safe || len(snd.Groups) != 2 || string(snd.Payload) != "pay" {
		t.Fatalf("got %#v", snd)
	}
	if err := c.Leave("g1"); err != nil {
		t.Fatal(err)
	}
	if l, ok := next().(session.Leave); !ok || l.Group != "g1" {
		t.Fatalf("got %#v", l)
	}
}

func TestEventsDelivered(t *testing.T) {
	daemonSide, c := fakeDaemon(t)
	go func() {
		session.WriteFrame(daemonSide, session.View{
			Group:   "g",
			Members: []group.ClientID{{Daemon: 5, Local: 9}},
		})
		session.WriteFrame(daemonSide, session.Message{
			Sender:  group.ClientID{Daemon: 1, Local: 1},
			Service: evs.Agreed,
			Groups:  []string{"g"},
			Payload: []byte("hi"),
		})
	}()
	ev := <-c.Events()
	v, ok := ev.(*View)
	if !ok || v.Group != "g" || len(v.Members) != 1 {
		t.Fatalf("got %#v", ev)
	}
	ev = <-c.Events()
	m, ok := ev.(*Message)
	if !ok || string(m.Payload) != "hi" || m.Service != evs.Agreed {
		t.Fatalf("got %#v", ev)
	}
}

func TestLocalValidation(t *testing.T) {
	_, c := fakeDaemon(t)
	if err := c.Join(""); err != group.ErrBadGroup {
		t.Fatalf("Join(\"\") = %v", err)
	}
	if err := c.Leave(""); err != group.ErrBadGroup {
		t.Fatalf("Leave(\"\") = %v", err)
	}
	if err := c.Multicast(evs.Agreed, nil); err == nil {
		t.Fatal("no groups accepted")
	}
	if err := c.Multicast(evs.Agreed, nil, ""); err != group.ErrBadGroup {
		t.Fatalf("bad group = %v", err)
	}
	if err := c.Multicast(evs.Service(0), nil, "g"); err == nil {
		t.Fatal("invalid service accepted")
	}
	many := make([]string, group.MaxGroups+1)
	for i := range many {
		many[i] = "g"
	}
	if err := c.Multicast(evs.Agreed, nil, many...); err == nil {
		t.Fatal("too many groups accepted")
	}
}

func TestCloseEndsEventStream(t *testing.T) {
	_, c := fakeDaemon(t)
	c.Close()
	select {
	case _, ok := <-c.Events():
		if ok {
			t.Fatal("received event after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("event stream did not close")
	}
	if err := c.Join("g"); err != ErrClosed {
		t.Fatalf("Join after close = %v, want ErrClosed", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err after clean close = %v, want nil", err)
	}
}

func TestDaemonErrorSurfacesInErr(t *testing.T) {
	daemonSide, c := fakeDaemon(t)
	session.WriteFrame(daemonSide, session.Error{Msg: "bad thing"})
	select {
	case _, ok := <-c.Events():
		if ok {
			t.Fatal("daemon error delivered as event")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("event stream did not close")
	}
	if err := c.Err(); err == nil {
		t.Fatal("Err is nil after daemon error")
	}
}

// TestSeqdMessageDecode: a sequenced Message read off the connection
// decodes into the one event handed to the application — a single
// allocation for a one-group delivery — and no two events share a Groups
// slice.
func TestSeqdMessageDecode(t *testing.T) {
	var wire bytes.Buffer
	msg := session.Message{Sender: group.ClientID{Daemon: 1, Local: 1}, Service: evs.Agreed,
		Seq: 11, Groups: []string{"g"}, Payload: []byte("payload")}
	if err := session.WriteFrame(&wire, session.Seqd{Seq: 4, Frame: msg}); err != nil {
		t.Fatal(err)
	}
	src := &loopReader{b: wire.Bytes()}
	c := &Client{}
	rd := c.codec.NewReader()
	// read returns the event and the pooled buffer its payload lives in,
	// which goes back to the pool only once the event is checked.
	read := func() (*Message, []byte) {
		f, m, seq, buf, err := c.read(rd, src)
		if err != nil || f != nil || seq != 4 {
			t.Fatalf("read = %v, %v, seq %d", f, err, seq)
		}
		return m, buf
	}
	a, abuf := read()
	b, bbuf := read()
	if a.Sender != msg.Sender || a.Service != msg.Service || a.Seq != 11 ||
		len(a.Groups) != 1 || a.Groups[0] != "g" || string(a.Payload) != "payload" {
		t.Fatalf("decoded %+v", a)
	}
	if &a.Groups[0] == &b.Groups[0] {
		t.Fatal("two delivered events share one Groups slice")
	}
	bufpool.Put(abuf)
	bufpool.Put(bbuf)
	if n := testing.AllocsPerRun(500, func() { _, buf := read(); bufpool.Put(buf) }); n > 1 {
		t.Fatalf("a sequenced one-group Message read allocates %.1f times, want at most 1 (the event)", n)
	}
}

// loopReader serves the same bytes over and over.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}
