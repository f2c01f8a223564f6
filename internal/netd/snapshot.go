package netd

import "repro/internal/snap"

// Codec saves or restores the daemon's mutable state. The pooled
// reserve's level belongs to the graph's section. Waiters cannot be
// recorded (they hold thread and reserve references into a world the
// load rebuilds); the fleet checkpoints only at quiescent instants
// where none exist, and a load refuses a snapshot that recorded any.
func (n *Netd) Codec(c *snap.Codec) {
	c.Section("netd")
	waiters := len(n.waiters)
	snap.Uint(c, &waiters)
	if c.Loading() && waiters > 0 {
		c.Failf("netd: restore: snapshot recorded %d blocked callers; "+
			"a netd session spans executed instants whose waiter state (thread "+
			"and reserve references, predicted pool-crossing) cannot be "+
			"serialized — checkpoint at a quiet point between sessions instead "+
			"(the fleet runner's chunk boundaries qualify; mid-wait instants do not)", waiters)
		return
	}
	snap.Int(c, &n.stats.Polls)
	snap.Int(c, &n.stats.Blocked)
	snap.Int(c, &n.stats.Immediate)
	snap.Int(c, &n.stats.PowerUps)
	snap.Int(c, &n.stats.Pooled)
	snap.Int(c, &n.stats.Abandoned)
	snap.Int(c, &n.stats.SettledSweeps)
	snap.Int(c, &n.lastSweep)
	c.Bool(&n.settling)
	if c.Loading() && n.settling {
		// settling without waiters is unreachable (predictions exist only
		// while callers wait); refuse rather than resume inconsistently.
		c.Failf("netd: restore: snapshot recorded a deferred sweep with no waiters")
		return
	}
	traced := !n.cfg.NoPoolTrace
	c.SameBool("pool tracing", traced)
	if traced {
		n.poolTrace.Codec(c)
	}
}
