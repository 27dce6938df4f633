package membership

import (
	"bytes"
	"math"
	"time"

	"accelring/internal/core"
	"accelring/internal/evs"
	"accelring/internal/obs"
	"accelring/internal/wire"
)

// Recovery control payload kinds (first payload byte of control messages).
const (
	recFlood byte = 1 // rest of payload: wire-encoded old-ring data frame
	recDone  byte = 2 // sender finished flooding
)

// recovery tracks the EVS recovery of one membership change: survivors of
// the same previous ring re-multicast every unstable old-ring message on
// the new ring (as totally ordered control messages), then deliver the
// old ring's tail, the transitional configuration, and finally the new
// regular configuration, in the order Extended Virtual Synchrony requires.
type recovery struct {
	// oldEng/oldRing are the dissolved ring (nil/zero for a fresh start).
	oldEng  *core.Engine
	oldRing evs.Configuration
	// oldDelivered is where application delivery stopped on the old ring.
	oldDelivered uint64
	// survivors are old-ring members continuing into the new ring.
	survivors idSet
	// low is the minimum old-ring aru among survivors: everything at or
	// below it is known received by every survivor.
	low uint64
	// high is the maximum old-ring sequence any survivor holds.
	high uint64
	// recBuf holds flooded old-ring messages this participant lacked,
	// copied out of their carrier messages (wire.DecodeData), whose
	// frames the new ring releases.
	recBuf map[uint64]*wire.Data
	// doneFrom tracks which new-ring members finished flooding.
	doneFrom map[evs.ProcID]bool
	// members is the new ring's membership (all must send done).
	members idSet
	// holdback defers new-ring application deliveries until recovery
	// completes, preserving EVS delivery order. Its payloads are copies:
	// the engine may release their frames before they are delivered.
	holdback []evs.Message
}

// engineOut adapts the ordering engine's effects to the machine. Frames
// are encoded into the machine's reusable scratch buffer; the machine
// Output contract requires transports to copy or transmit before
// returning, so the scratch is free again by the time the next effect
// fires.
type engineOut struct{ m *Machine }

func (o engineOut) Multicast(d *wire.Data) {
	o.m.encBuf = d.AppendTo(o.m.encBuf[:0])
	o.m.out.Multicast(o.m.encBuf)
}

func (o engineOut) SendToken(t *wire.Token) {
	o.m.encBuf = t.AppendTo(o.m.encBuf[:0])
	o.m.out.Unicast(o.m.ring.Successor(o.m.cfg.Self), o.m.encBuf)
}

func (o engineOut) Deliver(msg evs.Message) { o.m.onEngineDeliver(msg) }

// Release passes a frame the engine let go of on to the machine's Output;
// engines only see frames when that Output is a core.Releaser.
func (o engineOut) Release(d *wire.Data) { o.m.rel.Release(d) }

// install replaces the engine with one for the committed ring and begins
// recovery.
func (m *Machine) install(c *wire.Commit, now time.Time) {
	rec := &recovery{
		members:  newIDSet(c.NewRing.Members...),
		doneFrom: make(map[evs.ProcID]bool),
		recBuf:   make(map[uint64]*wire.Data),
	}
	// The EVS old ring advances only when a recovery COMPLETES. If the
	// previous recovery was cut short by another membership change, the
	// application never installed that ring: its configuration was never
	// delivered, so the ring still owed recovery is the one the aborted
	// attempt was recovering — not the aborted intermediate ring, whose
	// engine carries no application history. Dropping the unfinished
	// recovery here would silently lose old-ring messages this member
	// received (some possibly already safe-delivered by old-ring peers
	// that partitioned away), violating safe delivery and virtual
	// synchrony.
	oldEng, oldRing := m.eng, m.ring
	var oldDelivered uint64
	if m.eng != nil {
		oldDelivered = m.eng.Delivered()
	}
	if m.rec != nil {
		oldEng, oldRing, oldDelivered = m.rec.oldEng, m.rec.oldRing, m.rec.oldDelivered
		for seq, d := range m.rec.recBuf {
			rec.recBuf[seq] = d
		}
	}
	var pending []core.PendingSubmission
	if m.eng != nil {
		pending = m.eng.TakePending()
	}
	if oldEng != nil && !oldRing.ID.IsZero() {
		rec.oldEng = oldEng
		rec.oldRing = oldRing
		rec.oldDelivered = oldDelivered
		low := uint64(math.MaxUint64)
		var high uint64
		for i := range c.Info {
			in := &c.Info[i]
			if in.OldRing != oldRing.ID {
				continue
			}
			rec.survivors = rec.survivors.with(in.PID)
			if in.Aru < low {
				low = in.Aru
			}
			if in.HighSeq > high {
				high = in.HighSeq
			}
		}
		rec.low, rec.high = low, high
	}
	m.rec = rec

	eng, err := core.New(core.Config{
		Self:            m.cfg.Self,
		Ring:            c.NewRing,
		Windows:         m.cfg.Windows,
		Priority:        m.cfg.Priority,
		DelayedRequests: m.cfg.DelayedRequests,
		Observer:        m.cfg.Observer,
	}, engineOut{m})
	if err != nil {
		// The committed ring came from our own gather logic; a config
		// error here is a programming bug, not a runtime condition.
		panic("membership: install: " + err.Error())
	}
	m.eng = eng
	m.prevRingID = m.ring.ID
	m.ring = c.NewRing
	m.installedRing = c.NewRing.ID
	m.ringStarted = false
	m.setState(StateRecover, now)
	m.lastTokenAt = now
	m.lastRetransAt = time.Time{}
	m.counters.Installs++
	m.obsReg().Counter(m.metricName("membership.installs")).Inc()
	m.cfg.Observer.Record(obs.Event{
		Kind: obs.FlightState, At: now, Note: "install",
		Seq: c.NewRing.ID.Seq, Count: len(c.NewRing.Members),
	})

	// Flood every unstable old-ring message we hold, then the done
	// marker, then any application messages that never got sequence
	// numbers on the old ring. Submission order is per-sender FIFO in the
	// new ring's total order, so a member's done marker proves its flood
	// has been delivered.
	if rec.oldEng != nil {
		flood := func(d *wire.Data) {
			buf := make([]byte, 0, 1+d.EncodedLen())
			buf = append(buf, recFlood)
			// Engine enforces wire.MaxPayload on submissions; recovery
			// frames of accepted messages always fit.
			_ = m.eng.SubmitControl(d.AppendTo(buf))
		}
		rec.oldEng.RangeBuffered(rec.low+1, rec.high, func(d *wire.Data) bool {
			flood(d)
			return true
		})
		// Messages flooded to us during an aborted recovery attempt are
		// part of our old-ring holdings too; the new ring's members may
		// lack them.
		for seq, d := range rec.recBuf {
			if seq > rec.low && seq <= rec.high && rec.oldEng.Buffered(seq) == nil {
				flood(d)
			}
		}
	}
	_ = m.eng.SubmitControl([]byte{recDone})
	for _, p := range pending {
		if p.Control {
			continue // stale recovery traffic from an aborted change
		}
		_ = m.eng.SubmitHeld(p.Payload, p.Service, time.Time{}, p.Owned)
	}
}

// onEngineDeliver filters the engine's delivery stream: recovery control
// messages are consumed, application messages are held back during
// recovery and passed through afterwards.
func (m *Machine) onEngineDeliver(msg evs.Message) {
	if msg.Control {
		m.handleRecoveryControl(msg)
		return
	}
	if m.state == StateRecover && m.rec != nil {
		msg.Payload = bytes.Clone(msg.Payload)
		m.rec.holdback = append(m.rec.holdback, msg)
		return
	}
	m.out.Deliver(msg)
}

func (m *Machine) handleRecoveryControl(msg evs.Message) {
	rec := m.rec
	if rec == nil || len(msg.Payload) == 0 {
		return
	}
	switch msg.Payload[0] {
	case recFlood:
		if rec.oldEng == nil {
			return
		}
		inner, err := wire.DecodeData(msg.Payload[1:])
		if err != nil {
			return
		}
		if inner.RingID != rec.oldRing.ID ||
			inner.Seq <= rec.oldDelivered || inner.Seq > rec.high {
			return
		}
		if rec.oldEng.Buffered(inner.Seq) == nil {
			if _, dup := rec.recBuf[inner.Seq]; !dup {
				rec.recBuf[inner.Seq] = inner
			}
		}
	case recDone:
		rec.doneFrom[msg.Sender] = true
		if len(rec.doneFrom) == len(rec.members) {
			m.finalizeRecovery()
		}
	}
}

// finalizeRecovery delivers the EVS tail of the old configuration: the
// messages every survivor is known to have (through the old-ring delivery
// point `low`), then the transitional configuration, then the remaining
// recovered messages, then the new regular configuration, then the
// held-back new-ring traffic.
func (m *Machine) finalizeRecovery() {
	rec := m.rec
	m.rec = nil
	if rec.oldEng != nil {
		emit := func(seq uint64) {
			d := rec.oldEng.Buffered(seq)
			if d == nil {
				d = rec.recBuf[seq]
			}
			if d == nil || d.Control() {
				// A hole: no survivor holds this message (its sender
				// departed before anyone received it), or internal
				// traffic of the old ring.
				return
			}
			m.out.Deliver(evs.Message{
				Seq:     d.Seq,
				Sender:  d.Sender,
				Round:   d.Round,
				Service: d.Service,
				Config:  rec.oldRing.ID,
				Payload: d.Payload,
			})
		}
		// The pre-transitional part may only contain messages whose full
		// guarantees held on the old ring. For a Safe message that means
		// the old engine's stability line — proof that EVERY old-ring
		// member received it — not merely `low`, which is agreement among
		// the survivors present here. An unstable Safe message blocks
		// everything behind it (delivery is strictly in sequence order),
		// so the regular part stops at the first one and the rest of the
		// tail is delivered after the transitional configuration, which
		// is exactly the cut-down guarantee the transitional signals.
		stable := rec.oldEng.SafeLine()
		seq := rec.oldDelivered + 1
		for ; seq <= rec.low && seq <= rec.high; seq++ {
			d := rec.oldEng.Buffered(seq)
			if d == nil {
				d = rec.recBuf[seq]
			}
			if d != nil && d.Service.NeedsStability() && seq > stable {
				break
			}
			emit(seq)
		}
		transitional := evs.Configuration{
			ID:      evs.ViewID{Rep: rec.survivors.min(), Seq: m.ring.ID.Seq},
			Members: rec.survivors,
		}
		m.out.Configure(evs.ConfigChange{Config: transitional, Transitional: true})
		for ; seq <= rec.high; seq++ {
			emit(seq)
		}
	}
	m.out.Configure(evs.ConfigChange{Config: m.ring})
	for _, msg := range rec.holdback {
		m.out.Deliver(msg)
	}
	m.setState(StateOperational, m.lastNow)
}
