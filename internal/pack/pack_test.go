package pack

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"accelring/internal/wire"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	p := NewPacker(0)
	msgs := [][]byte{[]byte("alpha"), []byte("b"), {}, bytes.Repeat([]byte{9}, 300)}
	for _, m := range msgs {
		ok, err := p.Add(m)
		if err != nil || !ok {
			t.Fatalf("Add: ok=%v err=%v", ok, err)
		}
	}
	if p.Count() != len(msgs) {
		t.Fatalf("count = %d", p.Count())
	}
	bundle := p.Flush()
	if !IsBundle(bundle) {
		t.Fatal("flush output not recognized as bundle")
	}
	got, err := Unpack(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("unpacked %d, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("message %d mismatch", i)
		}
	}
	// Packer resets after flush.
	if p.Count() != 0 || p.Flush() != nil {
		t.Fatal("packer did not reset")
	}
}

func TestAddRejectsOversized(t *testing.T) {
	p := NewPacker(64)
	if _, err := p.Add(make([]byte, 64)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
	// A message that can fit an empty bundle but not the current one
	// returns ok=false without error.
	if ok, err := p.Add(make([]byte, 40)); !ok || err != nil {
		t.Fatalf("first add: %v %v", ok, err)
	}
	ok, err := p.Add(make([]byte, 40))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("second 40-byte message fit a 64-byte bundle")
	}
	if got := p.Flush(); got == nil {
		t.Fatal("flush lost the first message")
	}
}

func TestUnpackRejectsCorruption(t *testing.T) {
	p := NewPacker(0)
	p.Add([]byte("hello"))
	p.Add([]byte("world"))
	bundle := p.Flush()
	for i := 0; i < len(bundle); i++ {
		if _, err := Unpack(bundle[:i]); err == nil {
			t.Fatalf("unpacked %d-byte prefix", i)
		}
	}
	// Wrong magic.
	bad := append([]byte(nil), bundle...)
	bad[0] = 0x00
	if _, err := Unpack(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
	// Trailing garbage.
	if _, err := Unpack(append(append([]byte(nil), bundle...), 1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: %v", err)
	}
	// Zero count.
	zero := []byte{Magic, 0, 0}
	if _, err := Unpack(zero); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero count: %v", err)
	}
	// Random garbage never panics.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(128))
		rng.Read(b)
		if len(b) > 0 {
			b[0] = Magic
		}
		Unpack(b)
	}
}

func TestPackAll(t *testing.T) {
	var msgs [][]byte
	for i := 0; i < 100; i++ {
		msgs = append(msgs, []byte(fmt.Sprintf("message-%03d", i)))
	}
	bundles, err := PackAll(128, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) < 2 {
		t.Fatalf("expected multiple bundles, got %d", len(bundles))
	}
	// Order is preserved across bundles.
	var got [][]byte
	for _, b := range bundles {
		ms, err := Unpack(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > 128 {
			t.Fatalf("bundle size %d exceeds limit", len(b))
		}
		got = append(got, ms...)
	}
	if len(got) != len(msgs) {
		t.Fatalf("round trip count %d != %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("message %d out of order", i)
		}
	}
	// Oversized member fails the whole call.
	if _, err := PackAll(16, [][]byte{make([]byte, 64)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

// TestQuickPackRoundTrip property-tests order- and content-preservation
// for random message sets and limits.
func TestQuickPackRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		limit := 64 + rng.Intn(2048)
		n := rng.Intn(200)
		msgs := make([][]byte, n)
		for i := range msgs {
			m := make([]byte, rng.Intn(limit-8))
			rng.Read(m)
			msgs[i] = m
		}
		bundles, err := PackAll(limit, msgs)
		if err != nil {
			return false
		}
		var got [][]byte
		for _, b := range bundles {
			ms, err := Unpack(b)
			if err != nil || len(b) > limit {
				return false
			}
			got = append(got, ms...)
		}
		if len(got) != len(msgs) {
			return false
		}
		for i := range msgs {
			if !bytes.Equal(got[i], msgs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPack64B(b *testing.B) {
	msg := make([]byte, 64)
	p := NewPacker(DefaultLimit)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, _ := p.Add(msg); !ok {
			p.Flush()
			p.Add(msg)
		}
	}
}

// TestDefaultLimitFitsFrame: a full bundle fits one frame's payload, and
// the limit leaves room for at least one byte of message.
func TestDefaultLimitFitsFrame(t *testing.T) {
	if DefaultLimit > wire.MaxPayload {
		t.Errorf("DefaultLimit %d exceeds the %d-byte frame payload cap", DefaultLimit, wire.MaxPayload)
	}
	if DefaultLimit < headerLen+perMsgLen+1 {
		t.Errorf("DefaultLimit %d cannot hold a one-byte message", DefaultLimit)
	}
}
