package kernel

import (
	"testing"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestBacklightToggleAtBoundaryModeEquivalence pins the ordering
// contract of the lazy baseline billing: an event that changes the
// baseline power exactly on a batch boundary, while the kernel is fully
// quiescent, must be billed identically under both engines — the
// fixed-tick engine bills the boundary batch after the instant's
// events, so the parked batch task is handed that boundary back
// rather than having the advance hook bill it at the pre-event rate.
func TestBacklightToggleAtBoundaryModeEquivalence(t *testing.T) {
	consumed := func(reference bool) units.Energy {
		k := New(Config{Seed: 1, BacklightOn: true, Reference: reference})
		// No threads, no taps, no devices: fully quiescent immediately.
		k.Eng.At(5*units.Second, func(*sim.Engine) { k.SetBacklight(false) })
		k.Run(10 * units.Second)
		return k.Consumed()
	}
	ref, got := consumed(true), consumed(false)
	if ref != got {
		t.Fatalf("consumed diverges: reference %v vs production %v (Δ %v)",
			ref, got, got-ref)
	}
}

// TestReserveDeletionRestoresQuiescence is the regression test for the
// tap-lifecycle leak: deleting a reserve that is the endpoint of a live
// tap used to leave the tap in the graph's active set forever, so the
// kernel's batch task never parked again and an idle post-deletion run
// degenerated to tick-by-tick execution. After the fix, the deletion
// deactivates the orphaned tap, the battery's tap drain drops to zero,
// and the remainder of the run re-enters the next-event fast path
// (executed instants ≪ ticks).
func TestReserveDeletionRestoresQuiescence(t *testing.T) {
	k := New(Config{Seed: 3})
	// An app whose reserve lives in its own container while the feeding
	// tap lives in root: deleting the app container kills the reserve
	// but not the tap — the exact shape that leaked.
	app := kobj.NewContainer(k.Table, k.Root, label.Public())
	res := k.CreateReserve(app, "app-reserve", label.Public())
	tap, err := k.CreateTap(k.Root, "app-tap", k.KernelPriv(), k.Battery(), res, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	if err := tap.SetRate(k.KernelPriv(), units.Milliwatts(10)); err != nil {
		t.Fatal(err)
	}
	k.Run(10 * units.Second)

	if err := k.Table.Delete(app.ObjectID()); err != nil {
		t.Fatal(err)
	}
	if got := k.Graph.DrainBound(k.Battery()); got != 0 {
		t.Fatalf("battery tap drain = %v after reserve deletion, want 0", got)
	}

	// The rest of the run is pure idle: the engine must visit only a
	// tiny fraction of the remaining ticks (horizon instants, not 10 ms
	// tap batches).
	before := k.Eng.Steps()
	idle := units.Time(10 * units.Minute)
	k.Run(idle)
	steps := k.Eng.Steps() - before
	ticks := uint64(idle / k.Eng.Tick())
	if steps*100 >= ticks {
		t.Fatalf("idle run executed %d instants over %d ticks — quiescence fast path not restored", steps, ticks)
	}

	// And the accounting must still match the reference.
	k2 := New(Config{Seed: 3, Reference: true})
	app2 := kobj.NewContainer(k2.Table, k2.Root, label.Public())
	res2 := k2.CreateReserve(app2, "app-reserve", label.Public())
	tap2, err := k2.CreateTap(k2.Root, "app-tap", k2.KernelPriv(), k2.Battery(), res2, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	if err := tap2.SetRate(k2.KernelPriv(), units.Milliwatts(10)); err != nil {
		t.Fatal(err)
	}
	k2.Run(10 * units.Second)
	if err := k2.Table.Delete(app2.ObjectID()); err != nil {
		t.Fatal(err)
	}
	k2.Run(idle)
	if k.Consumed() != k2.Consumed() {
		t.Fatalf("post-deletion consumption diverges: production %v vs reference %v",
			k.Consumed(), k2.Consumed())
	}
}

// TestQuiescentIdleAccounting asserts the closed-form settlement: an
// idle kernel's utilization and consumption match the reference even
// across multiple Run calls (whose boundary instants are re-stepped).
func TestQuiescentIdleAccounting(t *testing.T) {
	type snap struct {
		consumed    units.Energy
		busy, idle  int64
		utilization float64
	}
	run := func(reference bool) snap {
		k := New(Config{Seed: 2, Reference: reference})
		for i := 0; i < 3; i++ {
			k.Run(7 * units.Second)
		}
		return snap{k.Consumed(), k.Sched.BusyTicks(), k.Sched.IdleTicks(), k.Sched.Utilization()}
	}
	ref, got := run(true), run(false)
	if ref != got {
		t.Fatalf("idle accounting diverges:\nreference  %+v\nproduction %+v", ref, got)
	}
	if got.idle == 0 {
		t.Fatal("no idle ticks recorded for an idle kernel")
	}
}
