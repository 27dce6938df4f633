//go:build poison

package bufpool

import "fmt"

// poisonByte fills every buffer Put returns to a pool.
const poisonByte = 0xA5

// poison fills b's whole capacity with the pattern.
func poison(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = poisonByte
	}
}

// checkPoison panics, naming class ci, unless b's whole capacity still
// holds the pattern Put wrote: something wrote to b after returning it.
func checkPoison(b []byte, ci int) {
	b = b[:cap(b)]
	for i, c := range b {
		if c != poisonByte {
			panic(fmt.Sprintf("bufpool: a %d-byte class buffer was written after Put (byte %d of %d is %#x)",
				classSizes[ci], i, len(b), c))
		}
	}
}
