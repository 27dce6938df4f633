//go:build poison

package bufpool

import (
	"strings"
	"testing"
)

// TestPoisonFillsOnPut: a buffer read after Put reads the pattern, over its
// whole capacity.
func TestPoisonFillsOnPut(t *testing.T) {
	b := Get(1350)
	for i := range b {
		b[i] = 1
	}
	Put(b)
	for i, c := range b[:cap(b)] {
		if c != poisonByte {
			t.Fatalf("byte %d is %#x after Put, want %#x", i, c, poisonByte)
		}
	}
}

// TestPoisonCatchesWriteAfterPut: a buffer written after Put panics at the
// Get that hands it out again, naming its class. The pool may hand out
// another buffer first, so the test retries, restoring the pattern of a
// buffer that did not come back so no later Get trips over it.
func TestPoisonCatchesWriteAfterPut(t *testing.T) {
	for attempt := 0; attempt < 100; attempt++ {
		b := Get(1350)
		Put(b)
		b[7] = 0 // the bug under test: a write after Put
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg, _ = r.(string)
				}
			}()
			c := Get(1350)
			b[7] = poisonByte
			Put(c)
			return ""
		}()
		if msg == "" {
			continue
		}
		if !strings.Contains(msg, "2048-byte class") {
			t.Fatalf("panic %q does not name the 2048-byte class", msg)
		}
		return
	}
	t.Fatal("a buffer written after Put never came back from Get")
}
