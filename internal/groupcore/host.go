package groupcore

import (
	"fmt"
	"time"
)

// The real-time half a production host runs around the passive core. The
// chaos harness uses neither: it calls Pace and BeginMigrate from its own
// virtual-time loop.

// DefaultSkipInterval is Run's lambda-pacing tick.
const DefaultSkipInterval = 2 * time.Millisecond

// MigrateTimeout bounds how long Migrate waits for the ordered close.
const MigrateTimeout = 30 * time.Second

// Run is the pacing loop: it calls Pace every interval (the merge's lambda
// pacing; non-positive takes DefaultSkipInterval) and whenever a control
// envelope is queued, until stop closes. With one ring nothing ever needs
// pacing, so no ticker runs and the loop only wakes for queued envelopes.
// The host runs it on a goroutine of its own; only one Run per core.
func (c *Core) Run(interval time.Duration, stop <-chan struct{}) {
	var tick <-chan time.Time
	if c.shards > 1 {
		if interval <= 0 {
			interval = DefaultSkipInterval
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-stop:
			return
		case <-tick:
		case <-c.wake:
		}
		c.Pace()
	}
}

// Migrate re-homes a group onto another ring with no loss, duplication or
// reordering: it orders a MigrateBegin on the group's current ring and
// blocks until the migration's globally ordered close point has been
// emitted locally (source ring drained, membership state re-homed,
// buffered target-ring traffic replayed). The move survives this call
// returning early on timeout: the protocol completes or voids
// deterministically on every node regardless.
func (c *Core) Migrate(g string, to int) error {
	done, err := c.BeginMigrate(g, c.RingOfGroup(g), to)
	if err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-time.After(MigrateTimeout):
		return fmt.Errorf("groupcore: migration of %q to ring %d timed out", g, to)
	}
}
