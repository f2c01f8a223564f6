package kernel

import (
	"slices"

	"repro/internal/snap"
	"repro/internal/units"
)

// This file implements checkpoint/resume for the kernel: the kernel's
// own accounting scalars, the gate call counters, and the object table,
// graph, scheduler and engine sections, then the charger. The engine
// section comes after every structural overlay so that none of them
// (which may brush component hooks) can perturb the task schedules the
// engine section restores. Peripherals registered with AddDevice
// (radio, smdd) have their own sections — the fleet layer, which knows
// the device's composition, codes them after the kernel section.

// Codec saves or restores the kernel and everything it owns. A load
// runs against a freshly rebuilt kernel (same config, same construction
// path); every structural mismatch — a gate the rebuild did not
// register, a divergent object census, a reserve or thread list drift —
// fails loudly.
func (k *Kernel) Codec(c *snap.Codec) {
	c.Section("kernel")
	snap.Int(c, &k.baseCarry)
	c.Bool(&k.backlight)
	snap.Uint(c, &k.nextCat)
	snap.Int(c, &k.lastSchedAt)
	snap.Int(c, &k.baselinePending)
	snap.Int(c, &k.tapsPending)
	snap.Int(c, &k.devicesPending)
	names := make([]string, 0, len(k.gates))
	for name := range k.gates {
		names = append(names, name)
	}
	slices.Sort(names)
	snap.SameUint(c, "gates", len(names))
	for i, name := range names {
		c.Name("gate", i, name)
		snap.Int(c, &k.gates[name].calls)
	}
	k.Table.Codec(c)
	k.Graph.Codec(c)
	k.Sched.Codec(c)
	k.Eng.Codec(c)
	// The charger section rides after the engine: it touches only
	// scalars, never task schedules. Presence is structural — a rebuilt
	// kernel attaches a charger iff the snapshotted one did, because both
	// run the same deterministic construction path. (Checked by hand: a
	// mismatch after the nested sections must still name the kernel.)
	charger := k.charger != nil
	c.Bool(&charger)
	if charger != (k.charger != nil) {
		c.Failf("kernel: restore: snapshot charger presence %v, rebuilt kernel %v "+
			"(the scenario's construction path must attach the charger before restoring)",
			charger, k.charger != nil)
		return
	}
	if k.charger != nil {
		k.charger.Codec(c)
	}
}

// Codec saves or restores the charger's mutable state. The task's own
// schedule belongs to the engine section; mid-charge checkpoints work
// because the credit cursor, carry and supply rate travel here.
func (c *BatteryCharger) Codec(cd *snap.Codec) {
	cd.Section("charger")
	cd.Bool(&c.plugged)
	cd.String(&c.supply.Name)
	snap.Int(cd, &c.supply.Rate)
	snap.Int(cd, &c.lastCharge)
	snap.Int(cd, &c.carry)
	cd.Bool(&c.settling)
	if c.settling && !c.closedForm {
		cd.Failf("kernel: charger restore: snapshot recorded a deferred charge prediction but the rebuilt charger " +
			"credits every quantum (reference configuration) — resume in the configuration " +
			"the checkpoint was written under")
		return
	}
	snap.Int(cd, &c.predicted)
	snap.Int(cd, &c.stats.Plugs)
	snap.Int(cd, &c.stats.Recharged)
	snap.Int(cd, &c.stats.Clamped)
	snap.Int(cd, &c.stats.SettledCharges)
}

// ResumeRun continues a checkpointed simulation to the given absolute
// instant without the Run-boundary re-step (see sim.Engine.ResumeUntil),
// then settles lazily-deferred accounting exactly as Run does. A
// RunUntil(a) + Codec load + ResumeRun(b) sequence executes the
// identical callback sequence a single Run to b would have.
func (k *Kernel) ResumeRun(until units.Time) {
	k.Eng.ResumeUntil(until)
	k.settle()
}
