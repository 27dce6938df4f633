//go:build linux && amd64

package transport

// The stdlib syscall table for linux/amd64 predates recvmmsg, so the
// number is pinned here (x86-64 syscall table; stable ABI).
const sysRECVMMSG = 299
