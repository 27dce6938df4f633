package wire

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"sync"
	"testing"
)

func TestAuthRoundTrip(t *testing.T) {
	a := NewAuth([]byte("secret"))
	frame := []byte("hello ring")
	signed := a.AppendMAC(nil, frame)
	if len(signed) != len(frame)+MacLen {
		t.Fatalf("signed length = %d, want %d", len(signed), len(frame)+MacLen)
	}
	body, ok := a.Verify(signed)
	if !ok {
		t.Fatal("verify rejected a genuine frame")
	}
	if !bytes.Equal(body, frame) {
		t.Fatalf("verify returned %q, want %q", body, frame)
	}
}

func TestAuthRejectsTampering(t *testing.T) {
	a := NewAuth([]byte("secret"))
	signed := a.AppendMAC(nil, []byte("payload"))

	for name, mutate := range map[string]func([]byte) []byte{
		"flip payload bit": func(b []byte) []byte { b[0] ^= 1; return b },
		"flip tag bit":     func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"truncate tag":     func(b []byte) []byte { return b[:len(b)-1] },
		"too short":        func(b []byte) []byte { return b[:MacLen-1] },
		"empty":            func([]byte) []byte { return nil },
	} {
		forged := mutate(append([]byte(nil), signed...))
		if _, ok := a.Verify(forged); ok {
			t.Errorf("%s: forged frame accepted", name)
		}
	}
}

func TestAuthWrongKeyRejected(t *testing.T) {
	signed := NewAuth([]byte("key-a")).AppendMAC(nil, []byte("payload"))
	if _, ok := NewAuth([]byte("key-b")).Verify(signed); ok {
		t.Fatal("frame signed with key-a verified under key-b")
	}
}

func TestAuthNilPassthrough(t *testing.T) {
	var a *Auth
	if a != NewAuth(nil) {
		t.Fatal("NewAuth(nil) must return nil")
	}
	frame := []byte("plain")
	if got := a.AppendMAC(nil, frame); !bytes.Equal(got, frame) {
		t.Fatalf("nil AppendMAC altered frame: %q", got)
	}
	body, ok := a.Verify(frame)
	if !ok || !bytes.Equal(body, frame) {
		t.Fatalf("nil Verify = %q, %v", body, ok)
	}
	if a.Overhead() != 0 || NewAuth([]byte("k")).Overhead() != MacLen {
		t.Fatal("Overhead mismatch")
	}
}

func TestDeriveKeyLabelsDiffer(t *testing.T) {
	master := []byte("master")
	k1 := DeriveKey(master, "ring0")
	k2 := DeriveKey(master, "ring1")
	if bytes.Equal(k1, k2) {
		t.Fatal("different labels derived the same key")
	}
	if !bytes.Equal(k1, DeriveKey(master, "ring0")) {
		t.Fatal("derivation is not deterministic")
	}
}

// TestAuthTagsMatchHMAC: the pooled MAC states give every method the tag a
// fresh HMAC-SHA256 gives, frame after frame and across goroutines.
func TestAuthTagsMatchHMAC(t *testing.T) {
	key := []byte("secret")
	a := NewAuth(key)
	want := func(parts ...[]byte) []byte {
		m := hmac.New(sha256.New, key)
		for _, p := range parts {
			m.Write(p)
		}
		return m.Sum(nil)[:MacLen]
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				frame := bytes.Repeat([]byte{byte(g), byte(i)}, 1+i)
				signed := a.AppendMAC(nil, frame)
				if !bytes.Equal(signed[len(frame):], want(frame)) {
					t.Errorf("AppendMAC tag differs from HMAC-SHA256 on frame %d/%d", g, i)
					return
				}
				if got := a.SumParts(nil, frame[:i], frame[i:]); !bytes.Equal(got, want(frame)) {
					t.Errorf("SumParts tag differs from HMAC-SHA256 on frame %d/%d", g, i)
					return
				}
				if body, ok := a.Verify(signed); !ok || !bytes.Equal(body, frame) {
					t.Errorf("Verify rejected frame %d/%d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAuthAllocFree: signing, signing in parts and verifying a keyed frame
// allocate nothing once the pooled MAC state exists.
func TestAuthAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	a := NewAuth([]byte("secret"))
	frame := bytes.Repeat([]byte{0x5A}, 1350)
	dst := make([]byte, 0, 2*len(frame))
	signed := a.AppendMAC(nil, frame)
	for name, fn := range map[string]func(){
		"AppendMAC": func() { dst = a.AppendMAC(dst[:0], frame) },
		"SumParts":  func() { dst = a.SumParts(dst[:0], frame[:10], frame[10:]) },
		"Verify": func() {
			if _, ok := a.Verify(signed); !ok {
				t.Fatal("verify failed")
			}
		},
	} {
		fn()
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s allocates %.1f times per frame, want 0", name, n)
		}
	}
}
