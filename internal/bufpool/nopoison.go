//go:build !poison

package bufpool

// Without the poison build tag, Put and Get leave buffer contents alone.
func poison([]byte)           {}
func checkPoison([]byte, int) {}
