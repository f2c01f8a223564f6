package kernel

import (
	"testing"

	"repro/internal/label"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestDeferralGuardIsPerDeferral: a deferral's replay guard shields only
// that deferral from the activity hooks its own replay fires. Owner A's
// replay makes a Graph.Transfer, which fires the tap-activity hook at an
// executed instant; A's deferral must still stand (its own transfer is
// what its prediction models) while owner B's ends (the transfer could
// perturb B's prediction). A guard dropped ends A's; a kernel-wide guard
// keeps B's.
func TestDeferralGuardIsPerDeferral(t *testing.T) {
	k := newTestKernel(Config{})
	kp := k.KernelPriv()
	res := k.CreateReserve(k.Root, "a-sink", label.Public())
	idle := func(*sim.Engine) {}
	taskA := k.Eng.Every("owner-a", 100*units.Millisecond, idle)
	// B's period keeps its resumed task from firing, and executing an
	// instant on A's grid, before the probe.
	taskB := k.Eng.Every("owner-b", units.Second, idle)
	var a, b Deferral
	replays := 0
	k.AddDeferral(&a, taskA, func(units.Time) {
		replays++
		if err := k.Graph.Transfer(kp, k.Battery(), res, units.Millijoule); err != nil {
			t.Fatal(err)
		}
	}, func(units.Time) {})
	k.AddDeferral(&b, taskB, func(units.Time) {}, func(units.Time) {})
	if !a.Enabled() || !b.Enabled() {
		t.Fatal("a production kernel's deferrals are not enabled")
	}
	// Defer off both grids: a boundary due at an executed instant hands
	// its firing back to the task and ends the deferral.
	k.Run(50 * units.Millisecond)
	a.Defer(10 * units.Second)
	b.Defer(10 * units.Second)
	var standingA, standingB bool
	k.Eng.At(550*units.Millisecond, func(*sim.Engine) {
		standingA, standingB = a.Standing(), b.Standing()
	})
	k.Run(600 * units.Millisecond)
	if replays == 0 {
		t.Fatal("owner A's replay never ran")
	}
	if !standingA {
		t.Error("owner A's own replay transfer ended its deferral")
	}
	if standingB {
		t.Error("owner A's replay transfer left owner B's deferral standing")
	}
}
