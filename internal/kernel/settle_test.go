package kernel

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/label"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/units"
)

// busyScenario assembles a kernel whose busy path exercises every
// settlement surface: an active constant tap (an energy-wrapped app), a
// proportional backward tap, periodic radio traffic (ramp → plateau →
// sleep cycles with fund billing), a thread that alternates compute and
// sleep, and a backlight toggle landing exactly on a batch boundary.
// It returns the kernel and the radio for post-run inspection.
func busyScenario(reference bool) (*Kernel, *radio.Radio) {
	k := New(Config{Seed: 11, Reference: reference})
	r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{Profile: k.Profile})
	k.AddDevice(r)

	app := k.CreateReserve(k.Root, "app", label.Public())
	tap, err := k.CreateTap(k.Root, "app-tap", k.KernelPriv(), k.Battery(), app, label.Public())
	if err != nil {
		panic(err)
	}
	if err := tap.SetRate(k.KernelPriv(), units.Milliwatts(79)); err != nil {
		panic(err)
	}
	back, err := k.CreateTap(k.Root, "app-back", k.KernelPriv(), app, k.Battery(), label.Public())
	if err != nil {
		panic(err)
	}
	if err := back.SetFrac(k.KernelPriv(), 20_000); err != nil {
		panic(err)
	}

	// Poll-ish radio traffic: an exchange every 13 s (idle timeout is
	// 20 s, so the radio cycles sleep → ramp → plateau → sleep).
	for at := units.Time(1500); at < 60*units.Second; at += 13 * units.Second {
		at := at
		k.Eng.At(at, func(e *sim.Engine) {
			r.Exchange(e.Now(), 300, 4096, app, k.KernelPriv(), nil)
		})
	}

	// A thread that computes for a while, then sleeps in long stretches.
	var next units.Time
	k.Spawn(k.Root, "worker", k.KernelPriv(), sched.RunnerFunc(func(now units.Time, th *sched.Thread) {
		if now < next {
			th.Sleep(next)
			return
		}
		next = now + 7*units.Second
	}), app)

	// Backlight flips exactly on a batch boundary while parked.
	k.Eng.At(20*units.Second, func(*sim.Engine) { k.SetBacklight(true) })
	k.Eng.At(31*units.Second, func(*sim.Engine) { k.SetBacklight(false) })
	return k, r
}

// busySnapshot captures every externally observable quantity.
func busySnapshot(k *Kernel, r *radio.Radio) string {
	lvl, _ := k.Battery().Level(k.KernelPriv())
	rs := r.Stats()
	return fmt.Sprintf("consumed=%v battery=%v busy=%d idle=%d util=%.6f radio{act=%d state=%v statE=%v dataE=%v activeT=%v} drain=%v",
		k.Consumed(), lvl, k.Sched.BusyTicks(), k.Sched.IdleTicks(), k.Sched.Utilization(),
		rs.Activations, r.State(), rs.StateEnergy, rs.DataEnergy, rs.ActiveTime,
		k.Graph.DrainBound(k.Battery()))
}

// TestBusySettlementModeEquivalence is the kernel-level differential:
// the busy scenario must produce identical observable state under the
// reference configuration and closed-form settlement — at every Run
// boundary, including short odd-length Runs whose entry instants are
// re-stepped.
func TestBusySettlementModeEquivalence(t *testing.T) {
	spans := []units.Time{
		3 * units.Second, 7*units.Second + 3, 10 * units.Second,
		til(21*units.Second, 20*units.Second+3), 25 * units.Second,
	}
	run := func(reference bool) []string {
		k, r := busyScenario(reference)
		var snaps []string
		for _, d := range spans {
			k.Run(d)
			snaps = append(snaps, busySnapshot(k, r))
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

// til is a tiny helper returning b-a... spans are durations; this keeps
// the odd-length span readable.
func til(b, a units.Time) units.Time { return b - a }

// TestBusyTapFastPath is the busy-path regression: a device with an
// always-active constant tap must execute far fewer instants than the
// one-per-batch a per-batch flow walk would need — next-event
// advancement gives an idle device its fast path; closed-form
// settlement gives a busy one its.
func TestBusyTapFastPath(t *testing.T) {
	const horizon = 10 * units.Minute
	run := func(reference bool) (steps uint64, consumed units.Energy) {
		k := New(Config{Seed: 5, Reference: reference})
		app := k.CreateReserve(k.Root, "app", label.Public())
		tap, err := k.CreateTap(k.Root, "tap", k.KernelPriv(), k.Battery(), app, label.Public())
		if err != nil {
			t.Fatal(err)
		}
		if err := tap.SetRate(k.KernelPriv(), units.Milliwatts(79)); err != nil {
			t.Fatal(err)
		}
		k.Run(horizon)
		lvl, _ := app.Level(k.KernelPriv())
		return k.Eng.Steps(), k.Consumed()*1_000_000 + lvl%1_000_000 // fold both into one comparand
	}
	_, want := run(true)
	steps, got := run(false)
	if batches := uint64(horizon / TapBatch); steps*20 >= batches {
		t.Fatalf("closed-form executed %d instants over %d tap batches — busy fast path not engaged (want ≥ 20x fewer)", steps, batches)
	}
	// And the accounting must agree exactly.
	if got != want {
		t.Fatalf("accounting diverges: reference %d vs closed-form %d", want, got)
	}
}

// TestDyingDeviceSettlementEquivalence drives a tiny battery through
// taps, radio draw and baseline billing to exhaustion: the clamped
// partial-drain endgame takes the exact-replay path and must match the
// reference microjoule for microjoule.
func TestDyingDeviceSettlementEquivalence(t *testing.T) {
	run := func(reference bool) string {
		k := New(Config{Seed: 3, Reference: reference, BatteryCapacity: 12 * units.Joule})
		r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{Profile: k.Profile})
		k.AddDevice(r)
		app := k.CreateReserve(k.Root, "app", label.Public())
		tap, err := k.CreateTap(k.Root, "tap", k.KernelPriv(), k.Battery(), app, label.Public())
		if err != nil {
			t.Fatal(err)
		}
		if err := tap.SetRate(k.KernelPriv(), units.Milliwatts(200)); err != nil {
			t.Fatal(err)
		}
		k.Eng.At(2*units.Second, func(e *sim.Engine) {
			r.Exchange(e.Now(), 300, 2048, app, k.KernelPriv(), nil)
		})
		// 12 J at ≈0.9 W plus a 9.5 J activation: dead well inside 20 s.
		var snaps []string
		for i := 0; i < 10; i++ {
			k.Run(2 * units.Second)
			snaps = append(snaps, busySnapshot(k, r))
		}
		return fmt.Sprint(snaps)
	}
	ref := run(true)
	closed := run(false)
	if ref != closed {
		t.Fatalf("dying device diverges:\nreference:   %s\nclosed-form: %s", ref, closed)
	}
}

// meter is a settleable device that bills a constant draw to a reserve
// every tick, as a voice call bills its caller: it never quiesces, so
// the kernel settles its ticks in closed form between executed
// instants.
type meter struct {
	bill  *core.Reserve
	priv  label.Priv
	draw  units.Power
	carry int64
}

func (m *meter) DeviceTick(_, dt units.Time) {
	var e units.Energy
	e, m.carry = m.draw.OverRem(dt, m.carry)
	_ = m.bill.DebitSelf(m.priv, e)
}

func (m *meter) SettleTicks(from, to, dt units.Time) {
	total := int64(m.draw)*int64(dt)*(int64((to-from)/dt)+1) + m.carry
	m.carry = total % 1000
	_ = m.bill.DebitSelf(m.priv, units.Energy(total/1000))
}

func (m *meter) PeakDraw() units.Power { return m.draw }
func (m *meter) SettleSafe() bool      { return true }

// TestDecayBitesBetweenSettledDeviceTicks: a device billing a decaying
// reserve across settled windows many seconds long. Each bite must read
// the reserve after exactly the ticks up to its own second, as the
// reference's decay task does, so the kernel ends a settled window at
// every bite; settling all of a window's ticks before its bites leaks a
// different amount.
func TestDecayBitesBetweenSettledDeviceTicks(t *testing.T) {
	run := func(reference bool) []string {
		k := New(Config{Seed: 4, Reference: reference, DecayHalfLife: 20 * units.Second})
		bill := k.CreateReserveOpts(k.Root, "bill", label.Public(), core.ReserveOpts{AllowDebt: true})
		if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), bill, 5*units.Joule); err != nil {
			t.Fatal(err)
		}
		k.AddDevice(&meter{bill: bill, priv: k.KernelPriv(), draw: units.Milliwatts(90)})
		var snaps []string
		for _, d := range []units.Time{7 * units.Second, 12*units.Second + 345, 40 * units.Second, 61*units.Second + 7} {
			k.Run(d)
			lvl, _ := bill.Level(k.KernelPriv())
			acc, _ := bill.Stats(k.KernelPriv())
			bat, _ := k.Battery().Level(k.KernelPriv())
			snaps = append(snaps, fmt.Sprintf("t=%v bill=%v decayed=%v battery=%v consumed=%v",
				k.Now(), lvl, acc.Decayed, bat, k.Consumed()))
		}
		if !reference && k.Eng.Steps() > 200 {
			t.Errorf("production executed %d instants; the settled windows should span many seconds", k.Eng.Steps())
		}
		return snaps
	}
	ref, got := run(true), run(false)
	for i := range got {
		if got[i] != ref[i] {
			t.Errorf("after span %d:\n  reference:  %s\n  production: %s", i, ref[i], got[i])
		}
	}
}

// quietDecayKernel is a production kernel with nothing to execute: no
// thread, no device, and three decayable reserves (one fed by two
// constant taps from the battery, one untouched that starts with a
// level, one at 0), so a Run settles as one quiet window of 1 s decay
// bites.
func quietDecayKernel(tb testing.TB) *Kernel {
	k := New(Config{Seed: 1, BatteryCapacity: 1 << 50})
	kp := k.KernelPriv()
	fed := k.CreateReserve(k.Root, "fed", label.Public())
	idle := k.CreateReserve(k.Root, "idle", label.Public())
	k.CreateReserve(k.Root, "zero", label.Public())
	if err := k.Graph.Transfer(kp, k.Battery(), idle, 50*units.Joule); err != nil {
		tb.Fatal(err)
	}
	for _, rate := range []units.Power{123_457, units.Milliwatts(90)} {
		tap, err := k.CreateTap(k.Root, "feed", kp, k.Battery(), fed, label.Public())
		if err != nil {
			tb.Fatal(err)
		}
		if err := tap.SetRate(kp, rate); err != nil {
			tb.Fatal(err)
		}
	}
	return k
}

// BenchmarkSteadyQuietDecay settles one quiet hour per op, 3,600 decay
// bites over the fed, untouched and empty reserves; CI-guarded to
// 0 B/op.
func BenchmarkSteadyQuietDecay(b *testing.B) {
	k := quietDecayKernel(b)
	k.Run(units.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(units.Hour)
	}
}

// hoarderKernel is a production kernel with nothing to execute and the
// §5.2.2 hoarder's graph: a decayable hoard that a 250 mW constant tap
// fills from the battery and a 0.1 %/s proportional tap taxes back to
// it, so every quiet window replays the tax and bites the hoard inside
// the replay.
func hoarderKernel(tb testing.TB) *Kernel {
	k := New(Config{Seed: 1, BatteryCapacity: 1 << 50})
	kp := k.KernelPriv()
	hoard := k.CreateReserve(k.Root, "hoard", label.Public())
	grab, err := k.CreateTap(k.Root, "grab", kp, k.Battery(), hoard, label.Public())
	if err != nil {
		tb.Fatal(err)
	}
	if err := grab.SetRate(kp, units.Milliwatts(250)); err != nil {
		tb.Fatal(err)
	}
	tax, err := k.CreateTap(k.Root, "tax", kp, hoard, k.Battery(), label.Public())
	if err != nil {
		tb.Fatal(err)
	}
	if err := tax.SetFrac(kp, 1000); err != nil {
		tb.Fatal(err)
	}
	return k
}

// BenchmarkSteadyHoarderWindow settles one quiet minute of the hoarder's
// graph per op, 60 decay bites of the taxed hoard; CI-guarded to 0 B/op.
func BenchmarkSteadyHoarderWindow(b *testing.B) {
	k := hoarderKernel(b)
	k.Run(units.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(units.Minute)
	}
}
