package core

import (
	"testing"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// SettleBites' differential: the oracle runs a window batch by batch,
// Flow then one baseline batch, with a Decay(1 s) after every batch that
// ends a whole second, as the kernel's batch task does; the subject
// settles the same window in one SettleBites pass and bills the
// baseline after it.

const batchesPerSecond = int64(units.Second / settleDT)

// bites advances both twins through a window whose first bite follows
// batch first and which ends on its bites-th bite; the subject must
// accept it.
func (tw *twins) bites(first, bites int64) {
	tw.t.Helper()
	n := first + (bites-1)*batchesPerSecond
	for i := int64(1); i <= n; i++ {
		tw.oracle.Flow(settleDT)
		tw.obill.bill(1)
		if (i-first)%batchesPerSecond == 0 {
			tw.oracle.Decay(units.Second)
		}
	}
	if !tw.subject.SettleBites(settleDT, first, bites, tw.baseline) {
		tw.t.Fatalf("SettleBites(%d, %d) refused", first, bites)
	}
	tw.sbill.bill(n)
}

// refuseBites asserts the subject refuses the window and leaves every
// byte of its state as it was.
func (tw *twins) refuseBites(first, bites int64) {
	tw.t.Helper()
	before := graphState(tw.subject)
	if tw.subject.SettleBites(settleDT, first, bites, tw.baseline) {
		tw.t.Fatalf("SettleBites(%d, %d) accepted", first, bites)
	}
	if after := graphState(tw.subject); after != before {
		tw.t.Fatalf("a refused SettleBites changed the graph:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

// biteGraph builds decayable reserves of every kind the pass bites: one
// fed by two constant taps whose carries never close, one untouched with
// a level, one at 0, one in debt that its feed lifts out of debt mid
// window and one left in debt; and a decay-exempt pool that a
// proportional tap replays back to the battery.
func biteGraph(t *testing.T) func(g *Graph, root *kobj.Container) []*Tap {
	return func(g *Graph, root *kobj.Container) []*Tap {
		bat := g.Battery()
		fed := g.NewReserve(root, "fed", label.Public(), ReserveOpts{})
		idle := g.NewReserve(root, "idle", label.Public(), ReserveOpts{})
		g.NewReserve(root, "zero", label.Public(), ReserveOpts{})
		debt := g.NewReserve(root, "debt", label.Public(), ReserveOpts{AllowDebt: true})
		owed := g.NewReserve(root, "owed", label.Public(), ReserveOpts{AllowDebt: true})
		pool := g.NewReserve(root, "pool", label.Public(), ReserveOpts{DecayExempt: true})
		if err := g.Transfer(label.Priv{}, bat, idle, 5*units.Joule); err != nil {
			t.Fatal(err)
		}
		if err := debt.DebitSelf(label.Priv{}, 300*units.Millijoule); err != nil {
			t.Fatal(err)
		}
		if err := owed.DebitSelf(label.Priv{}, 50); err != nil {
			t.Fatal(err)
		}
		var taps []*Tap
		for _, c := range []struct {
			name      string
			src, sink *Reserve
			rate      units.Power
		}{
			{"fed-a", bat, fed, 123_457},
			{"fed-b", bat, fed, 1_000_003},
			{"debt-feed", bat, debt, 40_001},
			{"pool-feed", bat, pool, 500_007},
		} {
			tap := mustTap(t, g, root, c.name, c.src, c.sink)
			mustRate(t, tap, c.rate)
			taps = append(taps, tap)
		}
		back := mustTap(t, g, root, "pool-back", pool, bat)
		mustFrac(t, back, 100_000)
		return append(taps, back)
	}
}

// TestSettleBites settles windows that start on and off the 1 s grid,
// after a few batches and a bite have left every carry non-zero, and
// checks the graph, decay carries included, against the oracle after
// each.
func TestSettleBites(t *testing.T) {
	tw := newHalfLifeTwins(t, units.Kilojoule, 20*units.Second, units.Milliwatts(699), biteGraph(t))
	tw.step(63)
	tw.mutate(func(g *Graph, _ []*Tap) error { g.Decay(units.Second); return nil })
	tw.compare("before the windows")
	for _, w := range []struct{ first, bites int64 }{
		{37, 25},                // mid-second start; debt crosses 0 inside
		{batchesPerSecond, 40},  // a whole second to the first bite
		{1, 3},                  // the first bite after one batch
		{batchesPerSecond, 300}, // the untouched reserve decays towards 0
	} {
		tw.bites(w.first, w.bites)
		tw.compare("after a window")
	}
	if tw.subject.SettledBatches() == 0 || tw.subject.FlowWalks() == 0 {
		t.Fatal("the pass settled no chunk or replayed no proportional tap")
	}
}

// TestSettleBitesHorizon: the pass needs the horizon to cover one batch
// beyond its window. It accepts a window one batch inside the horizon
// and refuses, unchanged, one that the horizon covers only exactly.
func TestSettleBitesHorizon(t *testing.T) {
	tw := newHalfLifeTwins(t, 40*units.Joule, 20*units.Second, units.Milliwatts(699), biteGraph(t))
	tw.step(13)
	window := func(n int64) (first, bites int64) {
		return (n-1)%batchesPerSecond + 1, (n-1)/batchesPerSecond + 1
	}
	h := tw.subject.HorizonBatches(settleDT, tw.baseline)
	if h < 2*batchesPerSecond || h > 100*batchesPerSecond {
		t.Fatalf("horizon %d batches is not a few seconds", h)
	}
	tw.refuseBites(window(h))
	tw.compare("after the refused window")
	tw.bites(window(h - 1))
	tw.compare("after the window inside the horizon")
}

// TestSettleBitesRefuses: a window a bite could perturb, or whose
// decayable credits do not telescope, is refused with the graph
// unchanged. Each case fails exactly one of the pass's checks.
func TestSettleBitesRefuses(t *testing.T) {
	reserve := func(g *Graph, name string) *Reserve {
		for _, r := range g.reserves {
			if r.name == name {
				return r
			}
		}
		t.Fatalf("no reserve %q", name)
		return nil
	}
	onBiteGraph := func(add func(g *Graph, root *kobj.Container)) func(g *Graph, root *kobj.Container) []*Tap {
		return func(g *Graph, root *kobj.Container) []*Tap {
			taps := biteGraph(t)(g, root)
			add(g, root)
			return taps
		}
	}
	for _, c := range []struct {
		name     string
		baseline units.Power
		build    func(g *Graph, root *kobj.Container) []*Tap
	}{
		{"sensitive decayable reserve", units.Milliwatts(699), onBiteGraph(func(g *Graph, root *kobj.Container) {
			mustFrac(t, mustTap(t, g, root, "leak", reserve(g, "idle"), g.Battery()), 1000)
		})},
		{"decayable reserve drained by a constant tap", units.Milliwatts(699), onBiteGraph(func(g *Graph, root *kobj.Container) {
			mustRate(t, mustTap(t, g, root, "drain", reserve(g, "idle"), reserve(g, "zero")), 1000)
		})},
		{"replayed tap into a decayable reserve", units.Milliwatts(699), onBiteGraph(func(g *Graph, root *kobj.Container) {
			mustRate(t, mustTap(t, g, root, "spill", reserve(g, "pool"), reserve(g, "zero")), 1000)
		})},
		// Without a baseline the plan itself does not refuse a sensitive
		// battery; the decayable reserve is fed from the pool, so its tap
		// telescopes.
		{"sensitive battery", 0, func(g *Graph, root *kobj.Container) []*Tap {
			pool := g.NewReserve(root, "pool", label.Public(), ReserveOpts{DecayExempt: true})
			fed := g.NewReserve(root, "fed", label.Public(), ReserveOpts{})
			if err := g.Transfer(label.Priv{}, g.Battery(), pool, 10*units.Joule); err != nil {
				t.Fatal(err)
			}
			mustRate(t, mustTap(t, g, root, "pool-feed", g.Battery(), pool), 500_007)
			mustRate(t, mustTap(t, g, root, "fed", pool, fed), 123_457)
			mustFrac(t, mustTap(t, g, root, "bleed", g.Battery(), pool), 1000)
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tw := newHalfLifeTwins(t, units.Kilojoule, 20*units.Second, c.baseline, c.build)
			tw.step(7)
			tw.refuseBites(37, 25)
			tw.compare("after the refused window")
		})
	}
}
