package slab

import (
	"bytes"
	"testing"
)

func TestPayloadCopiesAreClippedAndIndependent(t *testing.T) {
	var s Set[int]
	src := []byte("abc")
	a := s.Payload(src)
	b := s.Payload([]byte("def"))
	src[0] = 'x'
	if string(a) != "abc" || string(b) != "def" {
		t.Fatalf("copies %q %q", a, b)
	}
	if cap(a) != len(a) || cap(b) != len(b) {
		t.Fatalf("capacities %d, %d not clipped", cap(a), cap(b))
	}
	a = append(a, 'z')
	if string(b) != "def" || string(a) != "abcz" {
		t.Fatalf("append reached a neighbour: %q %q", a, b)
	}
}

func TestCarveKeepsNilAndEmpty(t *testing.T) {
	var s Set[int]
	if p := s.Payload(nil); p != nil {
		t.Fatalf("nil payload came back %#v", p)
	}
	if p := s.Payload([]byte{}); p == nil || len(p) != 0 {
		t.Fatalf("empty payload came back %#v", p)
	}
	if gs := s.Names(nil); gs != nil {
		t.Fatalf("nil group list came back %#v", gs)
	}
}

func TestOversizePayloadGetsItsOwnChunk(t *testing.T) {
	var s Set[int]
	small := s.Payload([]byte("x"))
	big := bytes.Repeat([]byte{7}, ByteChunk+100)
	got := s.Payload(big)
	if !bytes.Equal(got, big) || cap(got) != len(big) {
		t.Fatalf("oversize copy: len %d cap %d", len(got), cap(got))
	}
	after := s.Payload([]byte("y"))
	if string(small) != "x" || string(after) != "y" || !bytes.Equal(got, big) {
		t.Fatal("oversize payload disturbed its neighbours")
	}
}

func TestNewCarvesDistinctZeroedMessages(t *testing.T) {
	type msg struct{ n int }
	var s Set[msg]
	seen := make(map[*msg]bool)
	for i := 0; i < 3*MsgChunk; i++ {
		m := s.New()
		if m.n != 0 || seen[m] {
			t.Fatalf("message %d reused or dirty", i)
		}
		m.n = i + 1
		seen[m] = true
	}
}

func TestCarvingAllocatesOncePerChunk(t *testing.T) {
	var s Set[[4]uint64]
	p := make([]byte, 1350)
	gs := []string{"g"}
	// AllocsPerRun truncates its average to a whole number, so each run
	// carves 100 deliveries. One chunk each per MsgChunk messages,
	// NameChunk names and ByteChunk/1350 payloads: about 0.06 per
	// delivery.
	n := testing.AllocsPerRun(50, func() {
		for range 100 {
			s.New()
			s.Names(gs)
			s.Payload(p)
		}
	}) / 100
	if n > 0.1 {
		t.Fatalf("%.3f allocations per carved delivery, want at most 0.1", n)
	}
}
