package kernel

import (
	"fmt"
	"testing"

	"repro/internal/label"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
)

// chargeScenario assembles a kernel whose battery goes non-monotone
// through every charger regime: discharge from full, a fast-charge
// window that hits the full-battery clamp (top-off surplus discarded),
// an off-quantum unplug (partial-tail credit with sub-µJ carry), a slow
// trickle window, a second off-quantum unplug, and a final discharge to
// depletion. A constant app tap drains alongside the baseline so
// credits always race live outflows.
func chargeScenario(reference bool) *Kernel {
	k := New(Config{Seed: 9, Reference: reference, BatteryCapacity: 40 * units.Joule})
	app := k.CreateReserve(k.Root, "app", label.Public())
	tap, err := k.CreateTap(k.Root, "app-tap", k.KernelPriv(), k.Battery(), app, label.Public())
	if err != nil {
		panic(err)
	}
	if err := tap.SetRate(k.KernelPriv(), units.Milliwatts(150)); err != nil {
		panic(err)
	}
	c := k.AttachCharger()
	k.Eng.At(10*units.Second, func(*sim.Engine) { c.Plug(power.ACCharger()) })
	k.Eng.At(73*units.Second+400, func(*sim.Engine) { c.Unplug() })
	k.Eng.At(100*units.Second, func(*sim.Engine) { c.Plug(usbCharger) })
	k.Eng.At(130*units.Second+7, func(*sim.Engine) { c.Unplug() })
	return k
}

// usbCharger is a slow 2 W supply, so the tests cover two charge rates
// on the Dream besides the laptop's.
var usbCharger = power.Charger{Rate: units.Watts(2)}

// chargeSnapshot captures every canonically observable quantity. The
// charger's SettledCharges counter is deliberately absent: it counts
// boundaries accounted in closed form, which the reference legitimately
// reports as zero.
func chargeSnapshot(k *Kernel) string {
	lvl, _ := k.Battery().Level(k.KernelPriv())
	cs := k.Charger().Stats()
	return fmt.Sprintf("battery=%v consumed=%v recharged=%v conserr=%v",
		lvl, k.Consumed(), cs.Recharged, k.Graph.ConservationError())
}

// TestChargerSettlementModeEquivalence is the charger's differential:
// the non-monotone battery trajectory must be identical under the
// reference configuration and closed-form charge settlement — at every
// Run boundary, including odd-length spans that land mid-quantum and a
// final span that drains the battery to depletion after its last
// recharge.
func TestChargerSettlementModeEquivalence(t *testing.T) {
	spans := []units.Time{
		9 * units.Second, 4*units.Second + 3, 60 * units.Second,
		30*units.Second + 7, 96*units.Second + 990,
	}
	run := func(reference bool) []string {
		k := chargeScenario(reference)
		var snaps []string
		for _, d := range spans {
			k.Run(d)
			snaps = append(snaps, chargeSnapshot(k))
		}
		// Both plug windows together offer about 314 J to a 40 J battery;
		// the battery accepting visibly less is the clamp.
		offered := power.ACCharger().Rate.Over(63*units.Second+400) + usbCharger.Rate.Over(30*units.Second+7)
		if k.Charger().Stats().Recharged+units.Millijoule >= offered {
			t.Fatalf("reference=%v: scenario never hit the full-battery clamp — top-off regime untested", reference)
		}
		return snaps
	}
	ref, got := run(true), run(false)
	for i := range got {
		if got[i] != ref[i] {
			t.Errorf("closed-form diverges from the reference after span %d:\n  reference:   %s\n  closed-form: %s",
				i, ref[i], got[i])
		}
	}
}

// TestChargerClampNeverOvershoots pins the top-off regime: a charger
// left plugged on a full battery discards exactly the surplus, the
// level sits at capacity, and conservation (extended by Recharged)
// stays exact.
func TestChargerClampNeverOvershoots(t *testing.T) {
	k := New(Config{Seed: 2, BatteryCapacity: 20 * units.Joule})
	c := k.AttachCharger()
	k.Eng.At(5*units.Second, func(*sim.Engine) { c.Plug(power.ACCharger()) })
	k.Run(2 * units.Minute)

	lvl, _ := k.Battery().Level(k.KernelPriv())
	if lvl > 20*units.Joule {
		t.Fatalf("battery overshot capacity: %v", lvl)
	}
	if lvl != 20*units.Joule {
		t.Fatalf("battery not topped off under a 4 W supply vs 699 mW draw: %v", lvl)
	}
	cs := c.Stats()
	if offered := units.Watts(4).Over(2*units.Minute - 5*units.Second); cs.Recharged >= offered {
		t.Fatalf("top-off discarded no surplus: recharged %v of %v offered", cs.Recharged, offered)
	}
	if err := k.Graph.ConservationError(); err != 0 {
		t.Fatalf("conservation error %v", err)
	}
	// The accepted energy is exactly the draw since plugging plus the
	// refill of the first 5 s of discharge — everything else clamped.
	if cs.Recharged != k.Consumed() {
		t.Fatalf("recharged %v != consumed %v on a run that starts and ends full",
			cs.Recharged, k.Consumed())
	}
}

// TestChargerUnpluggedIsFree pins the discharge-only invariant behind
// the frozen artifacts: attaching a charger that is never plugged
// executes no extra instants and credits nothing.
func TestChargerUnpluggedIsFree(t *testing.T) {
	steps := func(attach bool) (uint64, units.Energy) {
		k := New(Config{Seed: 4})
		if attach {
			k.AttachCharger()
		}
		k.Run(10 * units.Minute)
		lvl, _ := k.Battery().Level(k.KernelPriv())
		return k.Eng.Steps(), lvl
	}
	bareSteps, bareLvl := steps(false)
	withSteps, withLvl := steps(true)
	if withSteps != bareSteps || withLvl != bareLvl {
		t.Fatalf("parked charger changed the run: steps %d→%d, battery %v→%v",
			bareSteps, withSteps, bareLvl, withLvl)
	}
}

// FuzzChargerSettle races randomized recharge windows against a
// randomized drain under the reference configuration and closed-form
// settlement. The two must agree byte for byte, conservation must hold exactly,
// and the battery must never overshoot capacity — across mid-charge
// unplugs, clamped top-offs, and charges completing right at the
// depletion horizon.
func FuzzChargerSettle(f *testing.F) {
	f.Add(uint16(10), uint16(300), uint32(5_000), uint32(40_000), uint32(80_000), uint32(20_017), uint8(1))
	f.Add(uint16(55), uint16(900), uint32(0), uint32(120_000), uint32(120_001), uint32(1), uint8(0))
	f.Add(uint16(3), uint16(0), uint32(29_999), uint32(30_002), uint32(90_400), uint32(10_000), uint8(2))
	f.Fuzz(func(t *testing.T, capJ, drainMW uint16, plug1, dur1, plug2, dur2 uint32, supply uint8) {
		capacity := units.Energy(1+int64(capJ)%60) * units.Joule
		drain := units.Power(int64(drainMW)%1500) * 1000
		const horizon = 3 * units.Minute
		win := func(at, dur uint32) (units.Time, units.Time) {
			start := units.Time(int64(at) % int64(horizon))
			return start, start + 1 + units.Time(int64(dur)%int64(horizon))
		}
		p1, u1 := win(plug1, dur1)
		p2, u2 := win(plug2, dur2)
		if p2 <= u1 { // keep windows disjoint and ordered
			p2 += u1 - p2 + 1
			u2 += u1 - p2 + 1
		}
		chargers := []power.Charger{usbCharger, power.ACCharger(), power.LaptopCharger()}
		sup := chargers[int(supply)%len(chargers)]

		run := func(reference bool) string {
			k := New(Config{Seed: 31, Reference: reference, BatteryCapacity: capacity})
			if drain > 0 {
				app := k.CreateReserve(k.Root, "app", label.Public())
				tap, err := k.CreateTap(k.Root, "app-tap", k.KernelPriv(), k.Battery(), app, label.Public())
				if err != nil {
					t.Fatal(err)
				}
				if err := tap.SetRate(k.KernelPriv(), drain); err != nil {
					t.Fatal(err)
				}
			}
			c := k.AttachCharger()
			k.Eng.At(p1, func(*sim.Engine) { c.Plug(sup) })
			k.Eng.At(u1, func(*sim.Engine) { c.Unplug() })
			if p2 < horizon {
				k.Eng.At(p2, func(*sim.Engine) { c.Plug(sup) })
				k.Eng.At(u2, func(*sim.Engine) { c.Unplug() })
			}
			k.Run(horizon)
			lvl, _ := k.Battery().Level(k.KernelPriv())
			if lvl > capacity {
				t.Fatalf("battery %v overshot capacity %v", lvl, capacity)
			}
			if err := k.Graph.ConservationError(); err != 0 {
				t.Fatalf("conservation error %v (reference=%v)", err, reference)
			}
			return chargeSnapshot(k)
		}
		ref := run(true)
		closed := run(false)
		if ref != closed {
			t.Fatalf("closed-form diverges from the reference:\n  reference:   %s\n  closed-form: %s", ref, closed)
		}
	})
}
