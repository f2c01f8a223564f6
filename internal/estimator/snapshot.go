package estimator

import "repro/internal/snap"

// Codec saves or restores the estimator's mutable state. The radio
// subscription and α are structural — the rebuilt world re-creates
// them, and a differing α means the rebuilt device was configured
// differently from the checkpointed one — so only the running
// estimate travels.
func (e *ActivationEstimator) Codec(c *snap.Codec) {
	c.Section("estimator")
	snap.SameInt(c, "α (percent)", e.alphaPct)
	snap.Int(c, &e.estimate)
}
