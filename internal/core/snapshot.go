package core

import "repro/internal/snap"

// This file implements checkpoint/resume for the resource consumption
// graph. A snapshot records the numeric state of every live reserve and
// tap — levels, accounting, flow carries — plus the graph's own
// counters; it does not record structure. A load runs against a graph
// whose owner has rebuilt the identical permanent object population
// (battery, radio fund, netd pool, ...) by re-running the device's
// deterministic construction path: the reserve and tap lists must match
// the snapshot exactly (same count, same names, same creation order),
// and any drift is a loud error.

// Codec saves or restores the graph's mutable state.
func (g *Graph) Codec(c *snap.Codec) {
	c.Section("graph")
	snap.Int(c, &g.consumed)
	snap.Int(c, &g.recharged)
	snap.SameInt(c, "battery capacity", g.capacity)
	snap.Uint(c, &g.tapSeq)
	snap.Int(c, &g.flowWalks)
	snap.Int(c, &g.settledBatches)
	snap.SameUint(c, "reserves", len(g.reserves))
	for i, r := range g.reserves {
		c.Name("reserve", i, r.name)
		snap.Int(c, &r.level)
		snap.Int(c, &r.stats.Consumed)
		snap.Int(c, &r.stats.In)
		snap.Int(c, &r.stats.Out)
		snap.Int(c, &r.stats.Decayed)
		snap.Int(c, &r.stats.ConsumeFailures)
		snap.Int(c, &r.decayCarry)
	}
	// A tap created mid-run means the device was not quiescent at the
	// checkpoint.
	snap.SameUint(c, "live taps", len(g.taps))
	for i, t := range g.taps {
		c.Name("tap", i, t.name)
		snap.Uint(c, &t.kind)
		snap.Int(c, &t.rate)
		snap.Int(c, &t.frac)
		snap.Int(c, &t.carry)
		snap.Int(c, &t.stats.Moved)
		snap.Int(c, &t.stats.Starved)
	}
	if !c.Loading() {
		return
	}
	// Rebuild the active set from the restored rates, bypassing the
	// activity hook (a load must not perturb the kernel task schedules,
	// which are themselves restored afterwards).
	g.active = g.active[:0]
	for _, t := range g.taps {
		t.activeIdx = -1
		if t.moves() {
			t.activeIdx = len(g.active)
			g.active = append(g.active, t)
		}
	}
}
