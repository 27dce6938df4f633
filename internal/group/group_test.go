package group

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestJoinLeaveMembers(t *testing.T) {
	tbl := NewTable()
	a := ClientID{Daemon: 1, Local: 1}
	b := ClientID{Daemon: 2, Local: 1}
	if err := tbl.Join(a, "chat"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Join(b, "chat"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Join(a, "chat"); err != nil { // idempotent
		t.Fatal(err)
	}
	got := tbl.Members("chat")
	want := []ClientID{a, b}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	if err := tbl.Leave(a, "chat"); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Members("chat"); !reflect.DeepEqual(got, []ClientID{b}) {
		t.Fatalf("members after leave = %v", got)
	}
	if err := tbl.Leave(a, "chat"); err != ErrNotMember {
		t.Fatalf("double leave = %v, want ErrNotMember", err)
	}
	if err := tbl.Leave(b, "chat"); err != nil {
		t.Fatal(err)
	}
	if tbl.Members("chat") != nil {
		t.Fatal("empty group not collected")
	}
	if len(tbl.Groups()) != 0 {
		t.Fatalf("groups = %v", tbl.Groups())
	}
}

func TestInvalidGroupNames(t *testing.T) {
	tbl := NewTable()
	c := ClientID{Daemon: 1, Local: 1}
	long := string(bytes.Repeat([]byte("g"), MaxGroupName+1))
	for _, g := range []string{"", long} {
		if err := tbl.Join(c, g); err != ErrBadGroup {
			t.Fatalf("Join(%q) = %v, want ErrBadGroup", g, err)
		}
		if err := tbl.Leave(c, g); err != ErrBadGroup {
			t.Fatalf("Leave(%q) = %v, want ErrBadGroup", g, err)
		}
	}
}

func TestDisconnect(t *testing.T) {
	tbl := NewTable()
	c := ClientID{Daemon: 1, Local: 1}
	tbl.Join(c, "a")
	tbl.Join(c, "b")
	left := tbl.Disconnect(c)
	if !reflect.DeepEqual(left, []string{"a", "b"}) {
		t.Fatalf("left = %v", left)
	}
	if tbl.GroupsOf(c) != nil {
		t.Fatal("client still in groups after disconnect")
	}
	if tbl.Disconnect(c) != nil {
		t.Fatal("second disconnect returned groups")
	}
}

func TestDropDaemon(t *testing.T) {
	tbl := NewTable()
	a1 := ClientID{Daemon: 1, Local: 1}
	a2 := ClientID{Daemon: 1, Local: 2}
	b1 := ClientID{Daemon: 2, Local: 1}
	tbl.Join(a1, "x")
	tbl.Join(a2, "y")
	tbl.Join(b1, "x")
	affected := tbl.DropDaemon(1)
	if !reflect.DeepEqual(affected, []string{"x", "y"}) {
		t.Fatalf("affected = %v", affected)
	}
	if got := tbl.Members("x"); !reflect.DeepEqual(got, []ClientID{b1}) {
		t.Fatalf("x members = %v", got)
	}
	if tbl.Members("y") != nil {
		t.Fatal("y should be empty")
	}
}

func TestRecipientsMultiGroup(t *testing.T) {
	tbl := NewTable()
	a := ClientID{Daemon: 1, Local: 1}
	b := ClientID{Daemon: 2, Local: 1}
	c := ClientID{Daemon: 3, Local: 1}
	tbl.Join(a, "g1")
	tbl.Join(b, "g1")
	tbl.Join(b, "g2") // member of both: must appear once
	tbl.Join(c, "g2")
	got := tbl.Recipients([]string{"g1", "g2"})
	want := []ClientID{a, b, c}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recipients = %v, want %v", got, want)
	}
	if tbl.Recipients([]string{"nope"}) != nil {
		t.Fatal("recipients of unknown group not nil")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	tests := []Envelope{
		{Kind: OpJoin, Sender: ClientID{1, 7}, Groups: []string{"chat"}},
		{Kind: OpLeave, Sender: ClientID{2, 1}, Groups: []string{"chat"}},
		{Kind: OpDisconnect, Sender: ClientID{3, 9}},
		{Kind: OpMessage, Sender: ClientID{1, 1}, Groups: []string{"a", "b", "c"},
			Payload: []byte("payload bytes")},
		{Kind: OpMessage, Sender: ClientID{1, 1}, Groups: []string{"solo"}},
		{Kind: OpSkip, Sender: ClientID{Daemon: 4}, Arg: 1234567},
		{Kind: OpMigrateBegin, Sender: ClientID{2, 5}, Groups: []string{"hot"}, Arg: 3},
		{Kind: OpMigrateAck, Sender: ClientID{Daemon: 6}, Groups: []string{"hot"}, Arg: 9},
	}
	for _, in := range tests {
		t.Run(in.Kind.String(), func(t *testing.T) {
			enc, err := in.Encode()
			if err != nil {
				t.Fatal(err)
			}
			out, err := DecodeEnvelope(enc)
			if err != nil {
				t.Fatal(err)
			}
			if out.Kind != in.Kind || out.Sender != in.Sender ||
				out.Arg != in.Arg ||
				!reflect.DeepEqual(out.Groups, in.Groups) ||
				!bytes.Equal(out.Payload, in.Payload) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
			}
		})
	}
}

func TestEnvelopeValidation(t *testing.T) {
	bad := []Envelope{
		{Kind: OpJoin, Groups: nil},
		{Kind: OpJoin, Groups: []string{"a", "b"}},
		{Kind: OpMessage, Groups: nil},
		{Kind: OpDisconnect, Groups: []string{"a"}},
		{Kind: OpKind(99), Groups: []string{"a"}},
		{Kind: OpJoin, Groups: []string{""}},
		{Kind: OpSkip},                                             // zero frontier
		{Kind: OpSkip, Groups: []string{"a"}, Arg: 1},              // groups forbidden
		{Kind: OpSkip, Payload: []byte("x"), Arg: 1},               // payload forbidden
		{Kind: OpMigrateBegin},                                     // needs a group
		{Kind: OpMigrateBegin, Groups: []string{"a", "b"}, Arg: 1}, // one group only
		{Kind: OpMigrateAck, Groups: []string{"a"}},                // zero epoch
		{Kind: OpMessage, Groups: []string{"a"}, Arg: 1},           // arg forbidden
	}
	for _, e := range bad {
		if _, err := e.Encode(); err == nil {
			t.Fatalf("Encode accepted invalid %+v", e)
		}
	}
}

func TestDecodeEnvelopeGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		DecodeEnvelope(b) // must not panic
	}
	// Truncations of a valid envelope must all fail cleanly.
	e := Envelope{Kind: OpMessage, Sender: ClientID{1, 1}, Groups: []string{"g"}, Payload: []byte("xyz")}
	enc, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeEnvelope(enc[:i]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", i)
		}
	}
}

// TestQuickTableConsistency: applying the same operation sequence to two
// tables yields identical views (determinism is what makes replicated
// tables agree).
func TestQuickTableConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		t1, t2 := NewTable(), NewTable()
		groups := []string{"a", "b", "c"}
		clients := []ClientID{{1, 1}, {1, 2}, {2, 1}, {3, 1}}
		for i := 0; i < 200; i++ {
			c := clients[rng.Intn(len(clients))]
			g := groups[rng.Intn(len(groups))]
			switch rng.Intn(4) {
			case 0:
				t1.Join(c, g)
				t2.Join(c, g)
			case 1:
				t1.Leave(c, g)
				t2.Leave(c, g)
			case 2:
				t1.Disconnect(c)
				t2.Disconnect(c)
			case 3:
				d := c.Daemon
				t1.DropDaemon(d)
				t2.DropDaemon(d)
			}
		}
		for _, g := range groups {
			if !reflect.DeepEqual(t1.Members(g), t2.Members(g)) {
				return false
			}
		}
		for _, c := range clients {
			if !reflect.DeepEqual(t1.GroupsOf(c), t2.GroupsOf(c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEnvelopeDecodeInterned: a decode through a Names set yields the
// same envelope as DecodeEnvelope, its one-group lists shared between
// envelopes naming the same group, and the set stops growing at maxNames.
func TestEnvelopeDecodeInterned(t *testing.T) {
	var names Names
	encode := func(e Envelope) []byte {
		b, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := encode(Envelope{Kind: OpMessage, Sender: ClientID{1, 1}, Groups: []string{"g"}, Payload: []byte("p")})
	multi := encode(Envelope{Kind: OpMessage, Sender: ClientID{1, 2}, Groups: []string{"g", "h"}})
	var e1, e2, e3 Envelope
	for _, c := range []struct {
		e *Envelope
		b []byte
	}{{&e1, one}, {&e2, one}, {&e3, multi}} {
		if err := c.e.Decode(c.b, &names); err != nil {
			t.Fatal(err)
		}
		want, _ := DecodeEnvelope(c.b)
		if !reflect.DeepEqual(*c.e, *want) {
			t.Fatalf("interned decode = %+v, want %+v", *c.e, *want)
		}
	}
	if &e1.Groups[0] != &e2.Groups[0] {
		t.Fatal("two envelopes naming one group do not share its list")
	}
	if cap(e1.Groups) != 1 {
		t.Fatalf("a shared list has spare capacity %d an append could write into", cap(e1.Groups))
	}
	for i := 0; i < 2*maxNames; i++ {
		names.Name([]byte(fmt.Sprintf("n%d", i)))
	}
	if len(names.lists) != maxNames {
		t.Fatalf("names set holds %d entries, want the bound %d", len(names.lists), maxNames)
	}
	var e Envelope
	if err := e.Decode(one[:len(one)-1], &names); err == nil {
		t.Fatal("a truncated envelope decoded")
	}
}
