package netd

import "repro/internal/snap"

// Codec saves or restores the daemon's mutable state and, when its
// radio is traced, the pool series. The pooled reserve's level belongs
// to the graph's section. Waiters cannot be recorded (they hold thread
// and reserve references into a world the load rebuilds), so a save
// with a caller blocked refuses as the load would; the fleet saves the
// device at a later instant instead.
func (n *Netd) Codec(c *snap.Codec) {
	c.Section("netd")
	waiters := len(n.waiters)
	snap.Uint(c, &waiters)
	if waiters > 0 {
		c.Failf("netd: %d blocked callers; a netd session's waiter state (thread and "+
			"reserve references, predicted pool-crossing) cannot be serialized", waiters)
		return
	}
	snap.Int(c, &n.stats.PowerUps)
	snap.Int(c, &n.stats.SettledSweeps)
	snap.Int(c, &n.lastSweep)
	standing := n.def.Standing()
	c.Bool(&standing)
	if standing {
		// settling without waiters is unreachable (predictions exist only
		// while callers wait); refuse rather than resume inconsistently.
		c.Failf("netd: a deferred sweep with no waiters")
		return
	}
	// The radio's section recorded the tracing switch, and a load
	// refused a rebuild with the other setting there.
	if n.radio.Traced() {
		n.poolTrace.Codec(c)
	}
}
