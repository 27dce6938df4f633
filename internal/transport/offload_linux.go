//go:build linux && (amd64 || arm64)

// UDP segmentation offload through plain socket options and control
// messages, so the module stays stdlib-only. A run of equal-size frames
// leaves as one sendmsg per peer carrying a UDP_SEGMENT control message:
// the kernel walks its send path once for the run and cuts it into one
// datagram per frame as late as it can (in the NIC, or at a receiving
// socket that does not read with UDP_GRO). A data socket with UDP_GRO on
// reads such a run back as one datagram and learns its segment size from
// a control message; the reader (mmsg_linux.go) reports it and NewUDP's
// data visit splits the run again. Either option is probed once at open;
// a kernel without it keeps one datagram per frame.

package transport

import (
	"net"
	"syscall"
	"unsafe"
)

// The SOL_UDP options (linux/udp.h).
const (
	solUDP     = 17
	udpSegment = 103
	udpGRO     = 104
)

// groCtlSpace is the control space one received datagram needs: a single
// UDP_GRO message carrying the segment size as an int.
var groCtlSpace = syscall.CmsgSpace(4)

// offloadOff makes openOffload report both options missing, as on a
// kernel without them (the fallback's tests set it).
var offloadOff bool

// openOffload probes conn once. gso is a UDP_SEGMENT control message for
// its sends (see setSegment), nil when the kernel refuses the option;
// gro reports whether UDP_GRO is now on for its reads.
func openOffload(conn *net.UDPConn) (gso []byte, gro bool) {
	if offloadOff {
		return nil, false
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, false
	}
	var segErr, groErr error
	if rc.Control(func(fd uintptr) {
		_, segErr = syscall.GetsockoptInt(int(fd), solUDP, udpSegment)
		groErr = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
	}) != nil {
		return nil, false
	}
	if segErr == nil {
		gso = make([]byte, syscall.CmsgSpace(2))
		cm := (*syscall.Cmsghdr)(unsafe.Pointer(&gso[0]))
		cm.Level, cm.Type = solUDP, udpSegment
		cm.SetLen(syscall.CmsgLen(2))
	}
	return gso, groErr == nil
}

// setSegment stores the segment size in a control message openOffload
// built.
func setSegment(gso []byte, seg int) {
	*(*uint16)(unsafe.Pointer(&gso[syscall.CmsgLen(0)])) = uint16(seg)
}
