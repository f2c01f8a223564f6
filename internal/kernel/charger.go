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
// The charger is a periodic task plus the kernel's second Deferral
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
//     horizon (SweepHorizonBatches), within which no reserve (battery
//     included) can clamp under worst-case outflow with all inflows
//     ignored.
//
// Inside such a window credits and drains are pure integer additions
// with no clamp and no starvation, so they commute: replaying the
// skipped credits after the window's lazily-settled drains yields the
// byte-identical state per-quantum execution would have. The reference
// configuration (Config.Reference) credits every quantum, and the
// differential tests assert exactly that equality.

// ChargeQuantum is the charger's crediting interval. Coarser than the
// tap batch: charge arrives in 30 s quanta, which bounds the
// executed-instant load of the clamped top-off regime (a full battery
// still plugged in) at a few thousand instants per simulated night.
const ChargeQuantum = 30 * units.Second

// ChargerStats counts charger activity.
type ChargerStats struct {
	// Recharged is the energy accepted into the battery.
	Recharged units.Energy
	// SettledCharges is the number of charge boundaries accounted in
	// closed form instead of executed as task firings. Reported outside
	// the canonical fleet JSON: the reference legitimately differs.
	SettledCharges int64
}

// BatteryCharger models an external supply feeding the battery. One per
// kernel, created by AttachCharger; scenarios drive it through Plug and
// Unplug from scheduled events.
type BatteryCharger struct {
	k    *Kernel
	task *sim.Task

	supply  power.Charger
	plugged bool
	// lastCharge is the instant through which charge has been credited;
	// meaningful only while plugged. carry holds the sub-µJ residue in
	// µW·ms so long plug windows integrate exactly.
	lastCharge units.Time
	carry      int64

	def   Deferral
	stats ChargerStats
}

// AttachCharger creates the kernel's battery charger and registers its
// crediting task. Call it once, during the device's deterministic
// construction path (a fleet scenario's Build), so rebuild-for-restore
// registers the task in the same engine slot. The charger starts
// unplugged with its task parked; an unplugged charger adds no executed
// instants and leaves every discharge-only result untouched.
func (k *Kernel) AttachCharger() *BatteryCharger {
	if k.charger != nil {
		panic("kernel: AttachCharger called twice")
	}
	c := &BatteryCharger{k: k}
	c.task = k.Eng.Every("kernel:charger", ChargeQuantum, func(e *sim.Engine) { c.fire(e.Now()) })
	c.task.Park()
	k.AddDeferral(&c.def, c.task, c.replayThrough, c.creditThrough)
	k.charger = c
	return c
}

// Charger returns the kernel's battery charger, or nil if none is
// attached.
func (k *Kernel) Charger() *BatteryCharger { return k.charger }

// Stats returns a copy of the counters.
func (c *BatteryCharger) Stats() ChargerStats { return c.stats }

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
	c.def.End()
	c.task.Resume()
}

// Unplug disconnects the supply, crediting the final partial interval
// since the last boundary. Safe to call when already unplugged.
func (c *BatteryCharger) Unplug() {
	if !c.plugged {
		return
	}
	// Boundaries strictly before now were replayed before this event
	// callback ran; what remains is the partial tail.
	c.creditThrough(c.k.Eng.Now())
	c.plugged = false
	c.def.End()
	c.carry = 0
	c.task.Park()
}

// fire is the crediting task's callback.
func (c *BatteryCharger) fire(now units.Time) {
	if !c.plugged {
		c.task.Park()
		return
	}
	c.def.End()
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
		c.carry = 0
	}
}

// maybeSettle defers the crediting task across a stretch where skipped
// boundaries are provably exact to replay, per the two conservative
// bounds in the file comment.
func (c *BatteryCharger) maybeSettle(now units.Time) {
	if !c.def.Enabled() || !c.plugged || now%ChargeQuantum != 0 {
		return
	}
	t := c.predictSafe(now)
	if t <= now+ChargeQuantum {
		return // next boundary fires anyway; stay on the grid
	}
	c.def.Defer(t)
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
	dtHorizon := hb * int64(TapBatch)
	dt := dtClamp
	if dtHorizon < dt {
		dt = dtHorizon
	}
	if dt <= 0 {
		return 0
	}
	t := now + units.Time(dt)
	return t - t%ChargeQuantum
}

// replayThrough is the deferral's replay: it credits, in one exact
// telescoped call, every quantum boundary the deferred task skipped in
// (lastCharge, limit]. A boundary exactly at a Run's stop instant
// credits directly (creditThrough, the deferral's atStop); the deferral
// and its pending prediction survive into a checkpoint, whose snapshot
// carries the charger cursor.
func (c *BatteryCharger) replayThrough(limit units.Time) {
	last := limit - limit%ChargeQuantum
	if last <= c.lastCharge {
		return
	}
	c.stats.SettledCharges += int64(last/ChargeQuantum) - int64(c.lastCharge/ChargeQuantum)
	c.creditThrough(last)
}
