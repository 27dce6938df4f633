//go:build linux && arm64

package transport

// Generic (asm-generic) syscall number used by linux/arm64; stable ABI.
const sysRECVMMSG = 243
