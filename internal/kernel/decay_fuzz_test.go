package kernel_test

// FuzzDecaySettle is the differential for the decay bite that rides
// with the baseline batches: a production kernel applies the bite due at
// each whole second inside its settled windows, and the reference
// executes its 1 s decay task. Where nothing in a quiet window needs
// per-second order, production settles all of its bites in one pass
// (Kernel.settleBites); otherwise, and when the pass declines, it
// settles one second at a time. Everything it reaches — decayable
// reserves drained by constant and proportional taps, near-dry sources,
// a netd waiter whose billing reserve decays, a charger topping off a
// full battery, Run boundaries on and off the 1 s grid — must read the
// same on both, byte for byte. The pass needs the hoard not drained by
// the constant tap: the corpus entries named quiet-feed-* (drain 0,
// back 0, feed > 0, Runs of minutes off the 1 s grid, with and without
// a probe) reach it with the hoard biting outside the replay, and those
// named hoard-tax-* (drain 0, back > 0, feed > 0, the same Runs, with
// and without a probe, one with a plugged charger) with the taxed hoard
// biting inside the replay's level buffer, as the §5.2.2 hoarder's
// does. TestDecayLargeHoard runs the taxed hoard at 10 kJ, where a
// bite's level × factor product no longer fits int64.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/label"
	"repro/internal/netd"
	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/units"
)

// decayScenario is one fuzz input, decoded.
type decayScenario struct {
	// fund is the hoard's initial level; a small one runs its taps dry.
	fund units.Energy
	// drain is a constant tap from the hoard into a second decayable
	// reserve, back a proportional tap from the hoard to the battery,
	// feed a constant tap from the battery into the hoard.
	drain, feed units.Power
	back        core.PPM
	// poll feeds a netd waiter's decayable billing reserve, from the
	// battery or, with pollHoard, from the hoard; 0 leaves netd without
	// callers.
	poll      units.Power
	pollHoard bool
	// runs are the Run lengths, on and off the 1 s grid.
	runs []units.Time
	// plug plugs a charger into the full battery at the start.
	plug bool
	// halfLife overrides the 10 min default.
	halfLife units.Time
	// probe, when non-zero, samples every level at this period.
	probe units.Time
	// battery overrides the 60 J default capacity.
	battery units.Energy
}

func decodeDecay(fund uint32, drainMW, backPPM, feedMW uint16, pollMW uint8, runs uint64, flags uint8) decayScenario {
	sc := decayScenario{
		fund:      units.Energy(fund % 20_000_000),
		drain:     units.Power(drainMW%2000) * units.Milliwatt,
		back:      core.PPM(backPPM%5000) * 10,
		feed:      units.Power(feedMW%500) * units.Milliwatt,
		poll:      units.Power(pollMW%100) * 5 * units.Milliwatt,
		plug:      flags&1 != 0,
		pollHoard: flags&32 != 0,
	}
	if flags&2 != 0 {
		sc.halfLife = 20 * units.Second
	}
	sc.probe = []units.Time{0, 370, 1300, 7000}[flags>>2&3]
	for i := 0; i < 4; i++ {
		r := runs >> (16 * i) & 0xffff
		d := units.Time(r%200) * units.Second
		if r&0x8000 != 0 {
			d += units.Time(r % 997)
		}
		sc.runs = append(sc.runs, d)
	}
	return sc
}

// runDecay runs sc on one kernel and returns its observable state at
// every Run boundary and probe instant.
func runDecay(t *testing.T, reference bool, sc decayScenario) string {
	battery := sc.battery
	if battery == 0 {
		battery = 60 * units.Joule
	}
	k := kernel.New(kernel.Config{Seed: 3, Reference: reference,
		BatteryCapacity: battery, DecayHalfLife: sc.halfLife})
	r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{Profile: k.Profile})
	k.AddDevice(r)
	if _, err := netd.New(k, r, netd.Config{Cooperative: true}); err != nil {
		t.Fatal(err)
	}
	kp := k.KernelPriv()
	tap := func(name string, src, sink *core.Reserve, rate units.Power, frac core.PPM) {
		tp, err := k.CreateTap(k.Root, name, kp, src, sink, label.Public())
		if err != nil {
			t.Fatal(err)
		}
		if rate > 0 {
			err = tp.SetRate(kp, rate)
		} else if frac > 0 {
			err = tp.SetFrac(kp, frac)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	hoard := k.CreateReserve(k.Root, "hoard", label.Public())
	sink := k.CreateReserve(k.Root, "sink", label.Public())
	if err := k.Graph.Transfer(kp, k.Battery(), hoard, sc.fund); err != nil {
		t.Fatal(err)
	}
	tap("drain", hoard, sink, sc.drain, 0)
	tap("back", hoard, k.Battery(), 0, sc.back)
	tap("feed", k.Battery(), hoard, sc.feed, 0)
	held := []*core.Reserve{hoard, sink}
	polls := 0
	if sc.poll > 0 {
		bill := k.CreateReserveOpts(k.Root, "bill", label.Public(), core.ReserveOpts{AllowDebt: true})
		src := k.Battery()
		if sc.pollHoard {
			src = hoard
		}
		tap("bill-feed", src, bill, sc.poll, 0)
		next := units.Time(1500)
		k.Spawn(k.Root, "poller", label.Priv{}, sched.RunnerFunc(func(now units.Time, th *sched.Thread) {
			if now < next {
				th.Sleep(next)
				return
			}
			next = now + 25*units.Second
			req := netd.Request{ReqBytes: 300, RespBytes: 2000, OnDone: func(units.Time) { polls++ }}
			if _, err := k.GateCall(netd.GateName, th, req); err != nil {
				t.Errorf("poll: %v", err)
				th.Exit()
			}
		}), bill)
		held = append(held, bill)
	}
	c := k.AttachCharger()
	if sc.plug {
		c.Plug(power.ACCharger())
	}
	var b strings.Builder
	state := func(now units.Time) {
		fmt.Fprintf(&b, "t=%v battery=%v held=%v consumed=%v recharged=%v polls=%d act=%d",
			now, level(k.Battery(), kp), k.Graph.TotalHeld(), k.Consumed(),
			c.Stats().Recharged, polls, r.Stats().Activations)
		for _, res := range held {
			a, _ := res.Stats(kp)
			fmt.Fprintf(&b, " %v/%v", level(res, kp), a.Decayed)
		}
		b.WriteByte('\n')
	}
	if sc.probe > 0 {
		k.Eng.Every("probe", sc.probe, func(e *sim.Engine) { state(e.Now()) })
	}
	for _, d := range sc.runs {
		k.Run(d)
		state(k.Now())
		if err := k.Graph.ConservationError(); err != 0 {
			t.Fatalf("t=%v: conservation error %v (reference=%v)", k.Now(), err, reference)
		}
	}
	return b.String()
}

func level(r *core.Reserve, p label.Priv) units.Energy {
	lvl, _ := r.Level(p)
	return lvl
}

func FuzzDecaySettle(f *testing.F) {
	// A hoard drained dry by both taps, Runs ending on whole seconds.
	f.Add(uint32(40_000), uint16(150), uint16(2000), uint16(0), uint8(0), uint64(0x0005_0002_0003_0001), uint8(0))
	// Fed and bled, a netd waiter, off-grid Runs, a 20 s half-life.
	f.Add(uint32(3_000_000), uint16(20), uint16(300), uint16(90), uint8(8), uint64(0x8123_8077_8040_8011), uint8(2))
	// The charger topping off a full battery, probed off the grid.
	f.Add(uint32(9_000_000), uint16(0), uint16(4999), uint16(400), uint8(3), uint64(0x0078_8033_003c_801e), uint8(1|1<<2))
	// A near-dry source feeding a long window with every piece on.
	f.Add(uint32(700), uint16(1999), uint16(10), uint16(1), uint8(40), uint64(0x80c7_0064_8191_0032), uint8(3|3<<2))
	// A netd waiter fed from a decaying hoard.
	f.Add(uint32(2_000_000), uint16(0), uint16(0), uint16(0), uint8(60), uint64(0x8050_0014_8021_00c2), uint8(2|32))
	f.Fuzz(func(t *testing.T, fund uint32, drainMW, backPPM, feedMW uint16, pollMW uint8, runs uint64, flags uint8) {
		sc := decodeDecay(fund, drainMW, backPPM, feedMW, pollMW, runs, flags)
		ref := runDecay(t, true, sc)
		prod := runDecay(t, false, sc)
		if ref != prod {
			t.Fatalf("production diverges from the reference:\n%s", firstLineDiff(ref, prod))
		}
	})
}

// TestDecayLargeHoard: a taxed, fed hoard holding 10 kJ, above the 2³³ µJ
// where a bite's level × factor product overflows int64, reads the same
// on a production kernel as on the reference.
func TestDecayLargeHoard(t *testing.T) {
	sc := decayScenario{fund: 10 * units.Kilojoule, back: 1000, feed: units.Milliwatts(250),
		runs: []units.Time{90*units.Second + 371, 30 * units.Second}, battery: 15 * units.Kilojoule}
	ref := runDecay(t, true, sc)
	if prod := runDecay(t, false, sc); ref != prod {
		t.Fatalf("production diverges from the reference:\n%s", firstLineDiff(ref, prod))
	}
}

// firstLineDiff names the first line at which two states differ.
func firstLineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("  reference:  %s\n  production: %s", al[i], bl[i])
		}
	}
	return fmt.Sprintf("  %d lines against %d", len(al), len(bl))
}
