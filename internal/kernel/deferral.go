package kernel

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// Deferral lets a subsystem defer its own periodic task (netd's 100 ms
// pool sweep, the charger's 30 s quantum) past firings it can settle in
// closed form, while the kernel keeps the deferred run exact. The owner
// defers the task to the next firing that matters (Defer) and ends the
// deferral when its task fires (End); the kernel then drives the owner's
// two callbacks:
//
//   - replay(limit) applies, in closed form, the firings the deferred
//     task skipped at or before limit. The kernel calls it at every
//     executed instant with limit now−1, after tap, baseline and device
//     settlement has caught up strictly before the instant, and right
//     before each decay bite it applies (biteAt) with limit t−1, inside
//     a settled window as well, so the bite reads the levels per-firing
//     execution leaves. If a firing is due exactly at an executed
//     instant, the kernel ends the deferral and hands the firing back to
//     the task, which fires in its registration slot (after the kernel's
//     own boundary tasks);
//   - atStop(now) performs a firing due exactly at the stop instant of
//     a Run, which the engine never executes, after the kernel's own
//     at-now boundary work. It must not end the deferral itself unless
//     its firing does (netd's sweep does; the charger's deferral survives
//     into a checkpoint).
//
// Any activity hook (thread woken, tap activated/changed/released,
// decayable created, radio woken, backlight switched) ends every
// standing deferral and returns its task to the periodic grid, since it
// could perturb the owner's prediction — except a deferral whose own
// replay is running: its transfers are the replay's own, modeled by the
// prediction it is servicing. Firings skipped so far replay at the next
// executed instant; none are lost.
//
// The reference configuration executes every firing: there Enabled is
// false and the owner never defers.
type Deferral struct {
	enabled        bool
	task           *sim.Task
	replay, atStop func(units.Time)
	// standing marks the task deferred past firings the owner's replay
	// settles; replaying guards this deferral (only) against the
	// activity hooks its own replay fires.
	standing, replaying bool
}

// AddDeferral binds d to its owner's task and callbacks and registers it
// with the kernel. The task must have no phase. An owner recycled with
// the kernel (Reset) passes the same d and callbacks again, so a rebuild
// allocates nothing.
func (k *Kernel) AddDeferral(d *Deferral, task *sim.Task, replay, atStop func(units.Time)) {
	*d = Deferral{enabled: k.lazySettle, task: task, replay: replay, atStop: atStop}
	if k.lazySettle {
		k.deferrals = append(k.deferrals, d)
	}
}

// Enabled reports whether the owner may defer its task: true on every
// production kernel, false on the reference, which executes every
// firing.
func (d *Deferral) Enabled() bool { return d.enabled }

// Defer postpones the task to the first firing at or after until; the
// kernel replays the firings skipped before then.
func (d *Deferral) Defer(until units.Time) {
	d.task.DeferUntil(until)
	d.standing = true
}

// End marks the deferral over; the owner calls it when its task fires.
func (d *Deferral) End() { d.standing = false }

// Standing reports whether the task is deferred.
func (d *Deferral) Standing() bool { return d.standing }

// replayThrough runs the owner's replay through limit under this
// deferral's guard.
func (d *Deferral) replayThrough(limit units.Time) {
	d.replaying = true
	d.replay(limit)
	d.replaying = false
}

// deferralStanding reports whether any deferral stands.
func (k *Kernel) deferralStanding() bool {
	for _, d := range k.deferrals {
		if d.standing {
			return true
		}
	}
	return false
}

// syncDeferrals replays every standing deferral's skipped firings
// strictly before now and, where a firing is due exactly now, hands it
// back to the task.
func (k *Kernel) syncDeferrals(now units.Time) {
	for _, d := range k.deferrals {
		if !d.standing {
			continue
		}
		d.replayThrough(now - 1)
		if now%d.task.Period == 0 && d.task.NextDue() > now {
			d.standing = false
			d.task.ResumeAt(now)
		}
	}
}

// replayDeferrals replays every standing deferral's skipped firings at
// or before limit, ahead of a decay bite.
func (k *Kernel) replayDeferrals(limit units.Time) {
	for _, d := range k.deferrals {
		if d.standing {
			d.replayThrough(limit)
		}
	}
}

// stopDeferrals closes out a Run whose stop instant the engine never
// executed: skipped firings strictly before it replay, and a firing due
// exactly at it runs through atStop.
func (k *Kernel) stopDeferrals(now units.Time) {
	for _, d := range k.deferrals {
		if !d.standing {
			continue
		}
		d.replayThrough(now - 1)
		if now%d.task.Period == 0 && d.task.NextDue() > now {
			d.atStop(now)
		}
	}
}

// invalidateDeferrals ends every standing deferral whose replay is not
// running and returns its task to the periodic grid.
func (k *Kernel) invalidateDeferrals() {
	for _, d := range k.deferrals {
		if d.standing && !d.replaying {
			d.standing = false
			d.task.Resume()
		}
	}
}
