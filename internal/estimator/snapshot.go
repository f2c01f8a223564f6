package estimator

import (
	"slices"

	"repro/internal/snap"
)

// Codec saves or restores the estimator's mutable state. The radio
// subscription and α are structural — the rebuilt world re-creates
// them, and a differing α means the rebuilt device was configured
// differently from the checkpointed one — so only the running
// estimate, the extremes and the diagnostic history travel.
func (e *ActivationEstimator) Codec(c *snap.Codec) {
	c.Section("estimator")
	snap.SameInt(c, "α (percent)", e.alphaPct)
	snap.Int(c, &e.estimate)
	snap.Int(c, &e.observations)
	snap.Int(c, &e.min)
	snap.Int(c, &e.max)
	n := c.Count(len(e.history))
	if n > 64 {
		c.Failf("estimator: restore: snapshot history holds %d entries, ring caps at 64", n)
		return
	}
	if c.Loading() {
		e.history = slices.Grow(e.history[:0], n)[:n]
	}
	for i := range e.history {
		snap.Int(c, &e.history[i])
	}
}
