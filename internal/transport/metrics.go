package transport

import (
	"accelring/internal/bufpool"
	"accelring/internal/obs"
)

// netMetrics holds per-transport frame/byte counters, split by frame
// class. Handles are resolved once at construction; a nil *netMetrics
// (observability off) makes every method a no-op.
type netMetrics struct {
	txDataFrames, txDataBytes   *obs.Counter
	txTokenFrames, txTokenBytes *obs.Counter
	rxDataFrames, rxDataBytes   *obs.Counter
	rxTokenFrames, rxTokenBytes *obs.Counter
	rxDropped                   *obs.Counter
	txSyscalls, rxSyscalls      *obs.Counter
}

// newNetMetrics resolves the counter handles under prefix (e.g.
// "transport.udp."). It returns nil when reg is nil. Any registry that
// observes a transport also gets the frame pool's hit/miss gauges
// published (under "bufpool"), since the transports are the pool's main
// tenants.
func newNetMetrics(reg *obs.Registry, prefix string) *netMetrics {
	if reg == nil {
		return nil
	}
	bufpool.PublishTo(reg)
	return &netMetrics{
		txDataFrames:  reg.Counter(prefix + "tx_data_frames"),
		txDataBytes:   reg.Counter(prefix + "tx_data_bytes"),
		txTokenFrames: reg.Counter(prefix + "tx_token_frames"),
		txTokenBytes:  reg.Counter(prefix + "tx_token_bytes"),
		rxDataFrames:  reg.Counter(prefix + "rx_data_frames"),
		rxDataBytes:   reg.Counter(prefix + "rx_data_bytes"),
		rxTokenFrames: reg.Counter(prefix + "rx_token_frames"),
		rxTokenBytes:  reg.Counter(prefix + "rx_token_bytes"),
		rxDropped:     reg.Counter(prefix + "rx_dropped"),
		txSyscalls:    reg.Counter(prefix + "tx_syscalls"),
		rxSyscalls:    reg.Counter(prefix + "rx_syscalls"),
	}
}

// tx counts one frame sent toward one destination.
func (m *netMetrics) tx(token bool, n int) {
	if m == nil {
		return
	}
	if token {
		m.txTokenFrames.Inc()
		m.txTokenBytes.Add(uint64(n))
		return
	}
	m.txDataFrames.Inc()
	m.txDataBytes.Add(uint64(n))
}

// txRun counts a run of n data frames, size bytes in all, sent toward
// one destination.
func (m *netMetrics) txRun(n, size int) {
	if m == nil {
		return
	}
	m.txDataFrames.Add(uint64(n))
	m.txDataBytes.Add(uint64(size))
}

// rx counts one frame accepted into a receive channel.
func (m *netMetrics) rx(token bool, n int) {
	if m == nil {
		return
	}
	if token {
		m.rxTokenFrames.Inc()
		m.rxTokenBytes.Add(uint64(n))
		return
	}
	m.rxDataFrames.Inc()
	m.rxDataBytes.Add(uint64(n))
}

// txSys counts kernel crossings on the send path: one per send call, a
// datagram or a segmented run.
func (m *netMetrics) txSys(n int) {
	if m == nil || n == 0 {
		return
	}
	m.txSyscalls.Add(uint64(n))
}

// rxSys counts kernel crossings on the receive path: one per recvmmsg
// call, a burst or the empty poll before the reader parks.
func (m *netMetrics) rxSys(n int) {
	if m == nil || n == 0 {
		return
	}
	m.rxSyscalls.Add(uint64(n))
}

// rxDrop counts one frame lost to receive-channel overflow.
func (m *netMetrics) rxDrop() {
	if m == nil {
		return
	}
	m.rxDropped.Inc()
}
