package kernel

import (
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
)

// This file implements the battery charger: the first *credit* on the
// battery path. The paper's experiments run discharge-only, but its
// lifetime-scale argument — reserves governing a device across days —
// only closes once the battery level is non-monotone, so the
// month-in-the-life scenarios plug the device in overnight.
//
// The charger is a periodic task plus the kernel's second SweepSettler
// (netd's pool sweep being the first): while plugged it credits the
// battery every charge quantum, and under closed-form settlement it
// defers its own task across provably uneventful stretches and replays
// the skipped boundaries in one exact telescoped credit. Exactness
// rests on two conservative bounds, both checked before any deferral:
//
//   - no clamp: conservation caps any future battery level at
//     TotalHeld(now) + charger credits, so a deferral that keeps
//     TotalHeld + credits ≤ Capacity can never hit the full-battery
//     clamp — under any interleaving of drains, decay leaks or
//     released-reserve refunds, all of which only move energy already
//     counted in TotalHeld;
//   - no exhaustion: the deferral never passes the kernel's sweep
//     horizon, within which no reserve (battery included) can clamp
//     under worst-case outflow with all inflows ignored.
//
// Inside such a window credits and drains are pure integer additions
// with no clamp and no starvation, so they commute: replaying the
// skipped credits after the window's lazily-settled drains yields the
// byte-identical state per-quantum execution would have. The reference
// configuration (Config.Reference) credits every quantum, and the
// differential tests assert exactly that equality.

// DefaultChargeQuantum is the charger's crediting interval. Coarser
// than the tap batch: charge arrives in 30 s quanta, which bounds the
// executed-instant load of the clamped top-off regime (a full battery
// still plugged in) at a few thousand instants per simulated night.
const DefaultChargeQuantum = 30 * units.Second

// ChargerConfig parameterizes AttachCharger.
type ChargerConfig struct {
	// Quantum overrides DefaultChargeQuantum.
	Quantum units.Time
}

// ChargerStats counts charger activity.
type ChargerStats struct {
	// Plugs is the number of Plug calls that found the device unplugged.
	Plugs int64
	// Recharged is the energy accepted into the battery.
	Recharged units.Energy
	// Clamped is the energy the charger offered but the full battery
	// refused (the top-off regime's discarded surplus).
	Clamped units.Energy
	// SettledCharges is the number of charge boundaries accounted in
	// closed form instead of executed as task firings. Reported outside
	// the canonical fleet JSON: the reference legitimately differs.
	SettledCharges int64
}

// BatteryCharger models an external supply feeding the battery. One per
// kernel, created by AttachCharger; scenarios drive it through Plug and
// Unplug from scheduled events.
type BatteryCharger struct {
	k       *Kernel
	quantum units.Time
	task    *sim.Task

	supply  power.Charger
	plugged bool
	// lastCharge is the instant through which charge has been credited;
	// meaningful only while plugged. carry holds the sub-µJ residue in
	// µW·ms so long plug windows integrate exactly.
	lastCharge units.Time
	carry      int64

	closedForm bool
	settling   bool
	predicted  units.Time
	stats      ChargerStats
}

// AttachCharger creates the kernel's battery charger and registers its
// crediting task. Call it once, during the device's deterministic
// construction path (a fleet scenario's Build), so rebuild-for-restore
// registers the task in the same engine slot. The charger starts
// unplugged with its task parked; an unplugged charger adds no executed
// instants and leaves every discharge-only result untouched.
func (k *Kernel) AttachCharger(cfg ChargerConfig) *BatteryCharger {
	if k.charger != nil {
		panic("kernel: AttachCharger called twice")
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = DefaultChargeQuantum
	}
	c := &BatteryCharger{k: k, quantum: cfg.Quantum}
	c.task = k.Eng.Every("kernel:charger", cfg.Quantum, func(e *sim.Engine) { c.fire(e.Now()) })
	c.task.Park()
	c.closedForm = k.LazySettle()
	if c.closedForm {
		k.AddSweepSettler(c)
	}
	k.charger = c
	return c
}

// Charger returns the kernel's battery charger, or nil if none is
// attached.
func (k *Kernel) Charger() *BatteryCharger { return k.charger }

// Stats returns a copy of the counters.
func (c *BatteryCharger) Stats() ChargerStats { return c.stats }

// Plugged reports whether a supply is connected.
func (c *BatteryCharger) Plugged() bool { return c.plugged }

// Plug connects a supply. Charge accrues from the current instant and
// is credited at every quantum boundary (plus a final partial interval
// at Unplug). Plugging while already plugged is a no-op — swap supplies
// with an explicit Unplug first.
func (c *BatteryCharger) Plug(supply power.Charger) {
	if c.plugged || supply.Rate <= 0 {
		return
	}
	c.plugged = true
	c.supply = supply
	c.lastCharge = c.k.Eng.Now()
	c.carry = 0
	c.settling = false
	c.stats.Plugs++
	c.task.Resume()
}

// Unplug disconnects the supply, crediting the final partial interval
// since the last boundary. Safe to call when already unplugged.
func (c *BatteryCharger) Unplug() {
	if !c.plugged {
		return
	}
	// Boundaries strictly before now were replayed by SyncSweeps before
	// this event callback ran; what remains is the partial tail.
	c.creditThrough(c.k.Eng.Now())
	c.plugged = false
	c.settling = false
	c.carry = 0
	c.task.Park()
}

// fire is the crediting task's callback.
func (c *BatteryCharger) fire(now units.Time) {
	if !c.plugged {
		c.task.Park()
		return
	}
	c.settling = false
	c.creditThrough(now)
	c.maybeSettle(now)
}

// creditThrough integrates the supply's rate from lastCharge to t and
// credits the battery, clamping at capacity. The carry telescopes, so
// one call covering k quanta credits exactly what k per-quantum calls
// would — as long as no intermediate boundary would have clamped, which
// every deferral guarantees (see the file comment). On a clamp the
// sub-µJ carry is discarded with the surplus: the charge controller is
// in top-off, and the reference shares this code path.
func (c *BatteryCharger) creditThrough(t units.Time) {
	if t <= c.lastCharge {
		return
	}
	offered, rem := c.supply.Rate.OverRem(t-c.lastCharge, c.carry)
	c.lastCharge = t
	c.carry = rem
	if offered <= 0 {
		return
	}
	accepted := c.k.Graph.ChargeBattery(offered)
	c.stats.Recharged += accepted
	if accepted < offered {
		c.stats.Clamped += offered - accepted
		c.carry = 0
	}
}

// maybeSettle defers the crediting task across a stretch where skipped
// boundaries are provably exact to replay, per the two conservative
// bounds in the file comment.
func (c *BatteryCharger) maybeSettle(now units.Time) {
	if !c.closedForm || !c.plugged || now%c.quantum != 0 {
		return
	}
	t := c.predictSafe(now)
	if t <= now+c.quantum {
		return // next boundary fires anyway; stay on the grid
	}
	c.task.DeferUntil(t)
	c.settling = true
	c.predicted = t
}

// predictSafe returns the latest quantum boundary through which skipped
// credits replay exactly: no possible clamp (conservation bound) and no
// possible reserve exhaustion (sweep horizon). Returns 0 when no
// boundary can be trusted.
func (c *BatteryCharger) predictSafe(now units.Time) units.Time {
	g := c.k.Graph
	room := int64(g.Capacity() - g.TotalHeld())
	rate := int64(c.supply.Rate)
	if room <= 0 || rate <= 0 {
		return 0
	}
	// Largest dt with ⌊(rate·dt + carry)/1000⌋ ≤ room, saturating the
	// product bound rather than overflowing on huge rooms.
	dtClamp := (room*1000 + 999 - c.carry) / rate
	hb := c.k.SweepHorizonBatches()
	if hb > 1<<40 {
		hb = 1 << 40 // keep the product in int64; far beyond any real run
	}
	dtHorizon := hb * int64(c.k.TapBatch())
	dt := dtClamp
	if dtHorizon < dt {
		dt = dtHorizon
	}
	if dt <= 0 {
		return 0
	}
	t := now + units.Time(dt)
	return t - t%c.quantum
}

// replayThrough credits, in one exact telescoped call, every quantum
// boundary the deferred task skipped in (lastCharge, limit].
func (c *BatteryCharger) replayThrough(limit units.Time) {
	last := limit - limit%c.quantum
	if last <= c.lastCharge {
		return
	}
	c.stats.SettledCharges += int64(last/c.quantum) - int64(c.lastCharge/c.quantum)
	c.creditThrough(last)
}

// SyncSweeps implements SweepSettler: called before every executed
// instant (after tap/baseline/device settlement has caught up), it
// replays the boundaries the deferred task skipped strictly before now
// and, when a boundary lands exactly now, hands the firing back to the
// task so it runs in its registration slot.
func (c *BatteryCharger) SyncSweeps(now units.Time) {
	if !c.settling {
		return
	}
	c.replayThrough(now - 1)
	if now%c.quantum == 0 && c.task.NextDue() > now {
		c.settling = false
		c.task.ResumeAt(now)
	}
}

// SettleSweeps implements SweepSettler: closes out a Run whose stop
// instant the engine never executed. A boundary exactly at the stop
// credits directly; the deferral (and its pending prediction) survives
// into a checkpoint, whose snapshot carries the charger cursor.
func (c *BatteryCharger) SettleSweeps(now units.Time) {
	if !c.settling {
		return
	}
	c.replayThrough(now - 1)
	if now%c.quantum == 0 && c.task.NextDue() > now {
		c.creditThrough(now)
	}
}

// InvalidateSweeps implements SweepSettler: any activity that could
// move the sweep horizon or the battery's headroom returns the task to
// its periodic grid. Boundaries skipped so far replay at the next
// executed instant; none are lost.
func (c *BatteryCharger) InvalidateSweeps() {
	if !c.settling {
		return
	}
	c.settling = false
	c.task.Resume()
}

// PredictedFire returns the instant the deferred task expects to fire,
// or 0 while it rides its periodic grid (diagnostics).
func (c *BatteryCharger) PredictedFire() units.Time {
	if !c.settling {
		return 0
	}
	return c.predicted
}

var _ SweepSettler = (*BatteryCharger)(nil)
