package client

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/session"
	"accelring/internal/slab"
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

// TestSeqdMessageDecode: a stream of sequenced Messages read off the
// connection decodes into events carved from the inbox's slabs, well under
// one allocation per delivery. Each event owns its Groups and Payload: the
// read buffer goes back to the pool before they are checked, and no two
// events share either.
func TestSeqdMessageDecode(t *testing.T) {
	var wire bytes.Buffer
	msg := session.Message{Sender: group.ClientID{Daemon: 1, Local: 1}, Service: evs.Agreed,
		Seq: 11, Groups: []string{"g"}, Payload: bytes.Repeat([]byte("p"), 1350)}
	if err := session.WriteFrame(&wire, session.Seqd{Seq: 4, Frame: msg}); err != nil {
		t.Fatal(err)
	}
	src := &loopReader{b: wire.Bytes()}
	in := inbox{rd: session.Codec{}.NewReader()}
	read := func() *Message {
		body, buf, err := in.rd.ReadBody(src)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := in.decode(body)
		if err != nil || seq != 4 {
			t.Fatalf("decode = seq %d, %v", seq, err)
		}
		m := in.keep(&in.m)
		bufpool.Put(buf)
		return m
	}
	a, b := read(), read()
	if a.Sender != msg.Sender || a.Service != msg.Service || a.Seq != 11 ||
		len(a.Groups) != 1 || a.Groups[0] != "g" || !bytes.Equal(a.Payload, msg.Payload) {
		t.Fatalf("decoded %+v", a)
	}
	if &a.Groups[0] == &b.Groups[0] || &a.Payload[0] == &b.Payload[0] {
		t.Fatal("two delivered events share a Groups slice or a payload")
	}
	if raceEnabled {
		return
	}
	// AllocsPerRun truncates its average to a whole number, so each run
	// reads 100 deliveries.
	n := testing.AllocsPerRun(50, func() {
		for range 100 {
			read()
		}
	}) / 100
	if n > 0.1 {
		t.Fatalf("a sequenced one-group Message read allocates %.3f times, want at most 0.1", n)
	}
}

// seqdMessage writes the sequenced one-group delivery seq with payload p.
func seqdMessage(w io.Writer, seq uint64, p []byte) error {
	return session.WriteFrame(w, session.Seqd{Seq: seq, Frame: session.Message{
		Sender: group.ClientID{Daemon: 1, Local: 1}, Service: evs.Agreed,
		Groups: []string{"g"}, Payload: p,
	}})
}

// testPayload is delivery i's payload: its length and bytes vary with i.
func testPayload(i int) []byte {
	p := make([]byte, 1+i%1500)
	for j := range p {
		p[j] = byte(i*31 + j)
	}
	return p
}

// nextMessage waits for the next event, which must be a *Message.
func nextMessage(t *testing.T, c *Client) *Message {
	t.Helper()
	select {
	case ev, ok := <-c.Events():
		m, isMsg := ev.(*Message)
		if !ok || !isMsg {
			t.Fatalf("got %#v (open %v), want a *Message", ev, ok)
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
		return nil
	}
}

// TestRetainedDeliveriesStayIntact: deliveries share slabs, yet an
// application that keeps some of them and appends to their Payload and
// Groups disturbs neither what it kept nor anything delivered later.
func TestRetainedDeliveriesStayIntact(t *testing.T) {
	daemonSide, c := fakeDaemon(t)
	go io.Copy(io.Discard, daemonSide) // the client's acks
	const n = 10000
	go func() {
		for i := 1; i <= 2*n; i++ {
			if seqdMessage(daemonSide, uint64(i), testPayload(i)) != nil {
				return
			}
		}
	}()
	type kept struct {
		i     int
		m     *Message
		grown []byte
	}
	var keep []kept
	for i := 1; i <= 2*n; i++ {
		m := nextMessage(t, c)
		if !bytes.Equal(m.Payload, testPayload(i)) || len(m.Groups) != 1 || m.Groups[0] != "g" {
			t.Fatalf("delivery %d arrived damaged: %d bytes, groups %q", i, len(m.Payload), m.Groups)
		}
		if i <= n && i%7 == 0 {
			grown := append(m.Payload, 0xEE, 0xEE)
			m.Groups = append(m.Groups, "extra")
			keep = append(keep, kept{i, m, grown})
		}
	}
	for _, k := range keep {
		want := testPayload(k.i)
		if !bytes.Equal(k.m.Payload, want) {
			t.Fatalf("kept delivery %d changed", k.i)
		}
		if !bytes.Equal(k.grown, append(want, 0xEE, 0xEE)) {
			t.Fatalf("delivery %d's appended payload was overwritten", k.i)
		}
		if len(k.m.Groups) != 2 || k.m.Groups[0] != "g" || k.m.Groups[1] != "extra" {
			t.Fatalf("delivery %d's appended groups became %q", k.i, k.m.Groups)
		}
	}
}

// TestOversizePayloadDelivered: a payload larger than a whole byte slab
// arrives intact, and so do the deliveries around it.
func TestOversizePayloadDelivered(t *testing.T) {
	daemonSide, c := fakeDaemon(t)
	big := bytes.Repeat([]byte("0123456789"), slab.ByteChunk/10+100)
	go func() {
		for i, p := range [][]byte{[]byte("before"), big, []byte("after"), big} {
			if seqdMessage(daemonSide, uint64(i+1), p) != nil {
				return
			}
		}
	}()
	for _, want := range [][]byte{[]byte("before"), big, []byte("after"), big} {
		if m := nextMessage(t, c); !bytes.Equal(m.Payload, want) || cap(m.Payload) != len(want) {
			t.Fatalf("delivered %d bytes (cap %d), want %d", len(m.Payload), cap(m.Payload), len(want))
		}
	}
}

// TestResumeReplayDropsDuplicates: after a reconnect the daemon replays
// from its window, which may repeat deliveries the client already
// processed; the client delivers each sequence number once, Messages and
// sequenced Views alike.
func TestResumeReplayDropsDuplicates(t *testing.T) {
	conns := make(chan net.Conn, 2)
	dial := func(string, string) (net.Conn, error) {
		clientSide, daemonSide := net.Pipe()
		conns <- daemonSide
		return clientSide, nil
	}
	id := group.ClientID{Daemon: 2, Local: 3}
	view := session.View{Group: "g", Members: []group.ClientID{id}}
	script := make(chan error, 1)
	go func() {
		script <- func() error {
			d := <-conns
			if _, err := session.ReadFrame(d); err != nil {
				return err
			}
			if err := session.WriteFrame(d, session.Welcome{Client: id, Token: 7}); err != nil {
				return err
			}
			for seq := uint64(1); seq <= 2; seq++ {
				if err := seqdMessage(d, seq, testPayload(int(seq))); err != nil {
					return err
				}
			}
			if err := session.WriteFrame(d, session.Seqd{Seq: 3, Frame: view}); err != nil {
				return err
			}
			d.Close()
			d = <-conns
			f, err := session.ReadFrame(d)
			if err != nil {
				return err
			}
			if r, ok := f.(session.Resume); !ok || r.Token != 7 || r.LastSeq != 3 {
				return fmt.Errorf("resume frame %#v", f)
			}
			if err := session.WriteFrame(d, session.Welcome{Client: id, Token: 7, Resumed: true}); err != nil {
				return err
			}
			go io.Copy(io.Discard, d) // the client's acks
			// The replay overlaps what the client already processed.
			for seq := uint64(2); seq <= 5; seq++ {
				if seq == 3 {
					err = session.WriteFrame(d, session.Seqd{Seq: 3, Frame: view})
				} else {
					err = seqdMessage(d, seq, testPayload(int(seq)))
				}
				if err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	c, err := DialWith(Config{Addr: "daemon", Reconnect: true, Dialer: dial, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var got []string
	for len(got) < 6 {
		select {
		case ev := <-c.Events():
			switch v := ev.(type) {
			case *Message:
				got = append(got, fmt.Sprintf("msg %d", len(v.Payload)-1))
			case *View:
				got = append(got, "view")
			case *Reconnected:
				got = append(got, fmt.Sprintf("reconnected resumed=%v", v.Resumed))
			default:
				t.Fatalf("unexpected event %#v", ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("events so far %q", got)
		}
	}
	want := []string{"msg 1", "msg 2", "view", "reconnected resumed=true", "msg 4", "msg 5"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("events %q, want %q", got, want)
	}
	if err := <-script; err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-c.Events():
		t.Fatalf("extra event %#v", ev)
	case <-time.After(50 * time.Millisecond):
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
