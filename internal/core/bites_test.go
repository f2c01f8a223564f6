package core

import (
	"math/big"
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
// accept it. Like the per-second sequence, the pass must count each of
// the window's n batches as settled and, since every graph these tests
// build replays a proportional tap, as a flow walk.
func (tw *twins) bites(first, bites int64) {
	tw.t.Helper()
	n := first + (bites-1)*batchesPerSecond
	walks, settled := tw.subject.FlowWalks(), tw.subject.SettledBatches()
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
	if w, s := tw.subject.FlowWalks()-walks, tw.subject.SettledBatches()-settled; w != n || s != n {
		tw.t.Fatalf("SettleBites(%d, %d) counted %d flow walks and %d settled batches, want %d each", first, bites, w, s, n)
	}
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

// hoardGraph builds the §5.2.2 hoarder's shape three times over: a
// decayable hoard fed by a constant tap from the battery and taxed by a
// proportional tap back to it, so the hoard is sensitive and bites in
// the replay's level buffer. One hoard starts at 0, one above its
// steady state (where feed, tax and decay balance) and also spills into
// a decay-exempt stash by a replayed constant tap, and one in debt that
// its feed lifts out of debt mid window. A decayable reserve fed by a
// telescoped tap bites outside the buffer in the same windows.
func hoardGraph(t *testing.T) func(g *Graph, root *kobj.Container) []*Tap {
	return func(g *Graph, root *kobj.Container) []*Tap {
		bat := g.Battery()
		zero := g.NewReserve(root, "hoard-zero", label.Public(), ReserveOpts{})
		full := g.NewReserve(root, "hoard-full", label.Public(), ReserveOpts{})
		debt := g.NewReserve(root, "hoard-debt", label.Public(), ReserveOpts{AllowDebt: true})
		stash := g.NewReserve(root, "stash", label.Public(), ReserveOpts{DecayExempt: true})
		fed := g.NewReserve(root, "fed", label.Public(), ReserveOpts{})
		if err := g.Transfer(label.Priv{}, bat, full, 20*units.Joule); err != nil {
			t.Fatal(err)
		}
		if err := debt.DebitSelf(label.Priv{}, 3*units.Joule); err != nil {
			t.Fatal(err)
		}
		var taps []*Tap
		for i, h := range []*Reserve{zero, full, debt} {
			feed := mustTap(t, g, root, h.name+"-feed", bat, h)
			mustRate(t, feed, 250_003+units.Power(i)*10_007)
			tax := mustTap(t, g, root, h.name+"-tax", h, bat)
			mustFrac(t, tax, 1003+PPM(i)*500)
			taps = append(taps, feed, tax)
		}
		spill := mustTap(t, g, root, "spill", full, stash)
		mustRate(t, spill, 50_001)
		feed := mustTap(t, g, root, "fed-feed", bat, fed)
		mustRate(t, feed, 123_457)
		return append(taps, spill, feed)
	}
}

// graphBuilder returns a twin build script that reports to t.
type graphBuilder func(t *testing.T) func(g *Graph, root *kobj.Container) []*Tap

// onBiteGraph builds biteGraph and then calls add on the same graph.
func onBiteGraph(add func(t *testing.T, g *Graph, root *kobj.Container)) graphBuilder {
	return func(t *testing.T) func(g *Graph, root *kobj.Container) []*Tap {
		return func(g *Graph, root *kobj.Container) []*Tap {
			taps := biteGraph(t)(g, root)
			add(t, g, root)
			return taps
		}
	}
}

// reserveNamed returns g's reserve called name.
func reserveNamed(t *testing.T, g *Graph, name string) *Reserve {
	t.Helper()
	for _, r := range g.reserves {
		if r.name == name {
			return r
		}
	}
	t.Fatalf("no reserve %q", name)
	return nil
}

// TestSettleBites settles windows that start on and off the 1 s grid,
// after a few batches and a bite have left every carry non-zero, and
// checks the graph, decay carries included, against the oracle after
// each. A second pair of twins then runs the same script with its
// subject sharing the first subject's replay memo, so the windows take
// the memo's hit path too.
func TestSettleBites(t *testing.T) {
	for _, c := range []struct {
		name  string
		build graphBuilder
	}{
		{"telescoped feeds", biteGraph},
		{"sensitive decayable reserve", onBiteGraph(func(t *testing.T, g *Graph, root *kobj.Container) {
			mustFrac(t, mustTap(t, g, root, "leak", reserveNamed(t, g, "idle"), g.Battery()), 1000)
		})},
		{"hoards", hoardGraph},
	} {
		t.Run(c.name, func(t *testing.T) {
			script := func(tw *twins) {
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
			}
			newTw := func() *twins {
				return newHalfLifeTwins(t, units.Kilojoule, 20*units.Second, units.Milliwatts(699), c.build(t))
			}
			tw := newTw()
			script(tw)
			shared := newTw()
			shared.subject.memo = tw.subject.memo
			hits, _ := shared.subject.memoStats()
			script(shared)
			if h, _ := shared.subject.memoStats(); h == hits {
				t.Fatal("the twin sharing the memo took no chunk from it")
			}
		})
	}
}

// TestSettleBitesHorizon: the pass needs the horizon to cover one batch
// beyond its window. It accepts a window one batch inside the horizon
// and refuses, unchanged, one that the horizon covers only exactly.
func TestSettleBitesHorizon(t *testing.T) {
	for _, c := range []struct {
		name  string
		build graphBuilder
	}{
		{"telescoped feeds", biteGraph},
		{"hoards", hoardGraph},
	} {
		t.Run(c.name, func(t *testing.T) {
			tw := newHalfLifeTwins(t, 40*units.Joule, 20*units.Second, units.Milliwatts(699), c.build(t))
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
		})
	}
}

// TestSettleBitesRefuses: a window a bite could perturb, or whose
// decayable credits do not telescope, is refused with the graph
// unchanged. Each case fails exactly one of the pass's checks.
func TestSettleBitesRefuses(t *testing.T) {
	for _, c := range []struct {
		name     string
		baseline units.Power
		build    graphBuilder
	}{
		{"decayable reserve drained by a constant tap", units.Milliwatts(699), onBiteGraph(func(t *testing.T, g *Graph, root *kobj.Container) {
			mustRate(t, mustTap(t, g, root, "drain", reserveNamed(t, g, "idle"), reserveNamed(t, g, "zero")), 1000)
		})},
		{"replayed tap into a decayable reserve", units.Milliwatts(699), onBiteGraph(func(t *testing.T, g *Graph, root *kobj.Container) {
			mustRate(t, mustTap(t, g, root, "spill", reserveNamed(t, g, "pool"), reserveNamed(t, g, "zero")), 1000)
		})},
		{"proportional tap into a decayable reserve", units.Milliwatts(699), onBiteGraph(func(t *testing.T, g *Graph, root *kobj.Container) {
			mustFrac(t, mustTap(t, g, root, "spill", reserveNamed(t, g, "pool"), reserveNamed(t, g, "zero")), 1000)
		})},
		// Without a baseline the plan itself does not refuse a sensitive
		// battery; the decayable reserve is fed from the pool, so its tap
		// telescopes.
		{"sensitive battery", 0, func(t *testing.T) func(g *Graph, root *kobj.Container) []*Tap {
			return func(g *Graph, root *kobj.Container) []*Tap {
				pool := g.NewReserve(root, "pool", label.Public(), ReserveOpts{DecayExempt: true})
				fed := g.NewReserve(root, "fed", label.Public(), ReserveOpts{})
				if err := g.Transfer(label.Priv{}, g.Battery(), pool, 10*units.Joule); err != nil {
					t.Fatal(err)
				}
				mustRate(t, mustTap(t, g, root, "pool-feed", g.Battery(), pool), 500_007)
				mustRate(t, mustTap(t, g, root, "fed", pool, fed), 123_457)
				mustFrac(t, mustTap(t, g, root, "bleed", g.Battery(), pool), 1000)
				return nil
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tw := newHalfLifeTwins(t, units.Kilojoule, 20*units.Second, c.baseline, c.build(t))
			tw.step(7)
			tw.refuseBites(37, 25)
			tw.compare("after the refused window")
		})
	}
}

// TestDecayLargeLevel: a bite on a level above 2³³ µJ, where level × f
// alone overflows int64, still retains ⌊level × f / 2³⁰⌋ with the
// remainder as its carry, so the level falls and the battery stays
// within its capacity. SettleBites, biting a 10 kJ reserve outside the
// sensitive set and a 10 kJ hoard inside it, matches the oracle.
func TestDecayLargeLevel(t *testing.T) {
	g, root := newHalfLifeGraph(DefaultBatteryCapacity, DefaultHalfLife)
	r := g.NewReserve(root, "large", label.Public(), ReserveOpts{})
	if err := g.Transfer(label.Priv{}, g.Battery(), r, 10*units.Kilojoule); err != nil {
		t.Fatal(err)
	}
	g.Decay(units.Second)
	f := g.retentionFactor(units.Second)
	total := new(big.Int).Mul(big.NewInt(int64(10*units.Kilojoule)), big.NewInt(f))
	carry := new(big.Int).And(total, big.NewInt(1<<30-1))
	retained := total.Rsh(total, 30)
	if r.level != units.Energy(retained.Int64()) || r.decayCarry != carry.Int64() {
		t.Fatalf("a 10 kJ reserve kept %d µJ with carry %d, want %v with carry %v", r.level, r.decayCarry, retained, carry)
	}
	if r.level >= 10*units.Kilojoule || g.Battery().level > DefaultBatteryCapacity {
		t.Fatalf("after one bite the reserve holds %v and the battery %v of %v", r.level, g.Battery().level, DefaultBatteryCapacity)
	}
	if err := g.ConservationError(); err != 0 {
		t.Fatalf("conservation error %v", err)
	}

	tw := newHalfLifeTwins(t, 30*units.Kilojoule, DefaultHalfLife, units.Milliwatts(699),
		func(g *Graph, root *kobj.Container) []*Tap {
			large := g.NewReserve(root, "large", label.Public(), ReserveOpts{})
			hoard := g.NewReserve(root, "hoard", label.Public(), ReserveOpts{})
			for _, res := range []*Reserve{large, hoard} {
				if err := g.Transfer(label.Priv{}, g.Battery(), res, 10*units.Kilojoule); err != nil {
					t.Fatal(err)
				}
			}
			feed := mustTap(t, g, root, "feed", g.Battery(), large)
			mustRate(t, feed, 250_003)
			tax := mustTap(t, g, root, "tax", hoard, g.Battery())
			mustFrac(t, tax, 1003)
			return []*Tap{feed, tax}
		})
	tw.step(37)
	tw.mutate(func(g *Graph, _ []*Tap) error { g.Decay(units.Second); return nil })
	tw.compare("after a bite")
	tw.bites(63, 40)
	tw.compare("after a window")
}
