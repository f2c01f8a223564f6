package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// The settlement differential harness: every test builds the same graph
// twice, drives the twins in lockstep — one batch by batch through Flow
// (the oracle), the other through SettleFlows — and asserts the complete
// observable state (levels, carries, per-tap and per-reserve stats,
// conservation) is byte-identical at every comparison point.

const settleDT = 10 * units.Millisecond

func newSettleGraph(battery units.Energy) (*Graph, *kobj.Container) {
	return newHalfLifeGraph(battery, -1)
}

// newHalfLifeGraph builds a graph whose reserves decay with halfLife
// (negative disables decay).
func newHalfLifeGraph(battery units.Energy, halfLife units.Time) (*Graph, *kobj.Container) {
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, label.Public())
	g := NewGraph(tbl, root, label.Public(), Config{BatteryCapacity: battery, DecayHalfLife: halfLife})
	return g, root
}

// graphState renders everything settlement may touch, including internal
// carries, so a single byte of divergence fails the comparison.
func graphState(g *Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "consumed=%d held=%d conserr=%d active=%d\n",
		g.consumed, g.TotalHeld(), g.ConservationError(), len(g.active))
	for _, r := range g.reserves {
		fmt.Fprintf(&b, "r %s level=%d in=%d cons=%d decayed=%d dcarry=%d\n",
			r.name, r.level, r.stats.In, r.stats.Consumed, r.stats.Decayed, r.decayCarry)
	}
	for _, t := range g.taps {
		fmt.Fprintf(&b, "t %s carry=%d moved=%d active=%v\n",
			t.name, t.carry, t.stats.Moved, t.activeIdx >= 0)
	}
	return b.String()
}

// baselineBiller emulates the kernel's per-batch baseline draw so the
// interleave contract (extraBatteryDrain + interleave callback) is
// exercised the way the kernel uses it.
type baselineBiller struct {
	g     *Graph
	power units.Power
	carry int64
}

func (bb *baselineBiller) bill(batches int64) {
	for i := int64(0); i < batches; i++ {
		var e units.Energy
		e, bb.carry = bb.power.OverRem(settleDT, bb.carry)
		if e > 0 {
			_ = bb.g.Battery().Consume(label.Priv{}, e)
		}
	}
}

// twins drives the oracle and the settled subject in lockstep.
type twins struct {
	t            *testing.T
	oracle       *Graph
	subject      *Graph
	otaps, staps []*Tap
	obill, sbill *baselineBiller
	baseline     units.Power
}

// newTwins builds the same graph twice. build must be deterministic; it
// returns the taps the script will mutate, in a stable order.
func newTwins(t *testing.T, battery units.Energy, baseline units.Power,
	build func(g *Graph, root *kobj.Container) []*Tap) *twins {
	t.Helper()
	return newHalfLifeTwins(t, battery, -1, baseline, build)
}

// newHalfLifeTwins is newTwins on graphs that decay with halfLife.
func newHalfLifeTwins(t *testing.T, battery units.Energy, halfLife units.Time, baseline units.Power,
	build func(g *Graph, root *kobj.Container) []*Tap) *twins {
	t.Helper()
	oracle, oroot := newHalfLifeGraph(battery, halfLife)
	subject, sroot := newHalfLifeGraph(battery, halfLife)
	tw := &twins{
		t: t, oracle: oracle, subject: subject,
		otaps: build(oracle, oroot), staps: build(subject, sroot),
		obill:    &baselineBiller{g: oracle, power: baseline},
		sbill:    &baselineBiller{g: subject, power: baseline},
		baseline: baseline,
	}
	if len(tw.otaps) != len(tw.staps) {
		t.Fatal("twin build diverged")
	}
	return tw
}

// step advances both twins by n batches: the oracle one Flow (plus one
// baseline batch) at a time, the subject through SettleFlows.
func (tw *twins) step(n int64) {
	for i := int64(0); i < n; i++ {
		tw.oracle.Flow(settleDT)
		tw.obill.bill(1)
	}
	tw.subject.SettleFlows(settleDT, n, tw.baseline, tw.sbill.bill)
}

// mutate applies the same mutation to both twins.
func (tw *twins) mutate(f func(g *Graph, taps []*Tap) error) {
	tw.t.Helper()
	if err := f(tw.oracle, tw.otaps); err != nil {
		tw.t.Fatal(err)
	}
	if err := f(tw.subject, tw.staps); err != nil {
		tw.t.Fatal(err)
	}
}

// compare asserts byte-identical state and exact conservation.
func (tw *twins) compare(tag string) {
	tw.t.Helper()
	os, ss := graphState(tw.oracle), graphState(tw.subject)
	if os != ss {
		tw.t.Fatalf("%s: settlement diverged from per-batch oracle:\n--- oracle ---\n%s--- settled ---\n%s", tag, os, ss)
	}
	if tw.oracle.ConservationError() != 0 || tw.subject.ConservationError() != 0 {
		tw.t.Fatalf("%s: conservation violated (oracle %v, subject %v)",
			tag, tw.oracle.ConservationError(), tw.subject.ConservationError())
	}
}

func mustTap(t *testing.T, g *Graph, root *kobj.Container, name string, src, sink *Reserve) *Tap {
	t.Helper()
	tap, err := g.NewTap(root, name, label.Priv{}, src, sink, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	return tap
}

func mustRate(t *testing.T, tap *Tap, rate units.Power) {
	t.Helper()
	if err := tap.SetRate(label.Priv{}, rate); err != nil {
		t.Fatal(err)
	}
}

func mustFrac(t *testing.T, tap *Tap, frac PPM) {
	t.Helper()
	if err := tap.SetFrac(label.Priv{}, frac); err != nil {
		t.Fatal(err)
	}
}

// TestSettleConstFarm: many constant taps with carry-odd rates over a
// long horizon — the pure telescoping path.
func TestSettleConstFarm(t *testing.T) {
	tw := newTwins(t, 100*units.Joule, units.Milliwatts(699),
		func(g *Graph, root *kobj.Container) []*Tap {
			var taps []*Tap
			for i, rate := range []units.Power{333, 79_000, 1, 137_000, 999} {
				r := g.NewReserve(root, fmt.Sprintf("r%d", i), label.Public(), ReserveOpts{})
				tap := mustTap(t, g, root, fmt.Sprintf("t%d", i), g.Battery(), r)
				mustRate(t, tap, rate)
				taps = append(taps, tap)
			}
			return taps
		})
	tw.step(1)
	tw.compare("after 1 batch")
	tw.step(999)
	tw.compare("after 1000 batches")
	tw.step(12345)
	tw.compare("after 13345 batches")
	if tw.subject.SettledBatches() == 0 {
		t.Fatal("subject never took the closed-form path")
	}
}

// TestSettleConstChain: battery→A→B→C constant chains, where a later
// tap's source is an earlier tap's sink within the same batch.
func TestSettleConstChain(t *testing.T) {
	tw := newTwins(t, 10*units.Joule, 0,
		func(g *Graph, root *kobj.Container) []*Tap {
			a := g.NewReserve(root, "a", label.Public(), ReserveOpts{})
			b := g.NewReserve(root, "b", label.Public(), ReserveOpts{})
			c := g.NewReserve(root, "c", label.Public(), ReserveOpts{})
			t1 := mustTap(t, g, root, "bat-a", g.Battery(), a)
			t2 := mustTap(t, g, root, "a-b", a, b)
			t3 := mustTap(t, g, root, "b-c", b, c)
			mustRate(t, t1, 10_000)
			mustRate(t, t2, 7_001)
			mustRate(t, t3, 2_999)
			return []*Tap{t1, t2, t3}
		})
	tw.step(997)
	tw.compare("after 997 batches")
	// Flip the middle tap's rate above the feed rate: b's horizon shrinks
	// and the chain must starve identically.
	tw.mutate(func(g *Graph, taps []*Tap) error {
		return taps[1].SetRate(label.Priv{}, units.Milliwatts(20))
	})
	tw.step(2000)
	tw.compare("after starvation regime")
}

// TestSettleFracChain is the frac-tap-chain property test: a
// proportional tap fed by a proportional tap (itself fed by a constant
// tap), plus a backward proportional tap to the battery, settles
// identically to per-batch flow at every mutation boundary.
func TestSettleFracChain(t *testing.T) {
	tw := newTwins(t, 20*units.Joule, units.Milliwatts(100),
		func(g *Graph, root *kobj.Container) []*Tap {
			a := g.NewReserve(root, "a", label.Public(), ReserveOpts{})
			b := g.NewReserve(root, "b", label.Public(), ReserveOpts{})
			c := g.NewReserve(root, "c", label.Public(), ReserveOpts{})
			feed := mustTap(t, g, root, "feed", g.Battery(), a)
			f1 := mustTap(t, g, root, "a-b", a, b)
			f2 := mustTap(t, g, root, "b-c", b, c)
			back := mustTap(t, g, root, "b-bat", b, g.Battery())
			mustRate(t, feed, units.Milliwatts(5))
			mustFrac(t, f1, 100_000)
			mustFrac(t, f2, 250_000)
			mustFrac(t, back, 50_000)
			return []*Tap{feed, f1, f2, back}
		})
	tw.step(100)
	tw.compare("frac chain after 100 batches")
	tw.mutate(func(g *Graph, taps []*Tap) error {
		return taps[1].SetFrac(label.Priv{}, 900_000)
	})
	tw.step(57)
	tw.compare("after frac mutation")
	tw.mutate(func(g *Graph, taps []*Tap) error {
		return taps[0].SetRate(label.Priv{}, units.Milliwatts(50))
	})
	tw.step(203)
	tw.compare("after feed mutation")
	// Zero the middle link: the chain below it drains out.
	tw.mutate(func(g *Graph, taps []*Tap) error {
		return taps[1].SetFrac(label.Priv{}, 0)
	})
	tw.step(500)
	tw.compare("after chain break")
}

// TestSettleDepletion drives a small battery to exhaustion through taps
// and interleaved baseline draw: the clamp/starvation sequence near zero
// must match the oracle batch for batch.
func TestSettleDepletion(t *testing.T) {
	tw := newTwins(t, 80*units.Millijoule, units.Milliwatts(699),
		func(g *Graph, root *kobj.Container) []*Tap {
			r := g.NewReserve(root, "sink", label.Public(), ReserveOpts{})
			tap := mustTap(t, g, root, "drain", g.Battery(), r)
			mustRate(t, tap, units.Milliwatts(300))
			fr := g.NewReserve(root, "fracsink", label.Public(), ReserveOpts{})
			ftap := mustTap(t, g, root, "fdrain", r, fr)
			mustFrac(t, ftap, 400_000)
			return []*Tap{tap, ftap}
		})
	// 80 mJ at ≈1 W drains within ≈80 ms; run far past it, comparing
	// every 10 batches through the clamp regime.
	for i := 0; i < 6; i++ {
		tw.step(10)
		tw.compare(fmt.Sprintf("depletion chunk %d", i))
	}
	tw.step(1000)
	tw.compare("long after exhaustion")
}

// TestHorizonMonotonic pins the depletion-horizon property the kernel's
// chunked settlement relies on: with no external mutation, settling j
// batches can shrink the horizon by at most j.
func TestHorizonMonotonic(t *testing.T) {
	g, root := newSettleGraph(units.Joule)
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	tap := mustTap(t, g, root, "t", g.Battery(), r)
	mustRate(t, tap, units.Milliwatts(10))
	extra := units.Milliwatts(699)
	prev := g.HorizonBatches(settleDT, extra)
	if prev <= 0 {
		t.Fatalf("expected positive horizon, got %d", prev)
	}
	settled := int64(0)
	bill := &baselineBiller{g: g, power: extra}
	for g.HorizonBatches(settleDT, extra) > 0 {
		j := int64(7)
		g.SettleFlows(settleDT, j, extra, bill.bill)
		settled += j
		h := g.HorizonBatches(settleDT, extra)
		// Monotone up to one batch of slack for the interleaved drain's
		// sub-µJ carry (see HorizonBatches).
		if h < prev-j-1 {
			t.Fatalf("horizon not monotone: %d batches in, horizon fell %d → %d (more than the %d settled)",
				settled, prev, h, j)
		}
		prev = h
		if settled > 1_000_000 {
			t.Fatal("horizon never reached zero on a draining battery")
		}
	}
	// Nothing may have overshot: every level non-negative.
	for _, res := range g.reserves {
		lvl, err := res.Level(label.Priv{})
		if err != nil {
			t.Fatal(err)
		}
		if lvl < 0 {
			t.Fatalf("reserve %s overshot to %v", res.name, lvl)
		}
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation violated: %v", g.ConservationError())
	}
}

// TestHorizonOverflowGuard: several taps whose rates individually pass
// the per-tap overflow guard must not wrap the summed per-reserve drain
// — the horizon must degrade to zero (replay), never to unbounded.
func TestHorizonOverflowGuard(t *testing.T) {
	g, root := newSettleGraph(units.Kilojoule)
	near := units.Power(horizonCap/int64(settleDT) - 1)
	for i := 0; i < 5; i++ {
		r := g.NewReserve(root, fmt.Sprintf("r%d", i), label.Public(), ReserveOpts{})
		tap := mustTap(t, g, root, fmt.Sprintf("t%d", i), g.Battery(), r)
		mustRate(t, tap, near)
	}
	if h := g.HorizonBatches(settleDT, 0); h != 0 {
		t.Fatalf("horizon = %d with overflow-scale drains, want 0 (conservative replay)", h)
	}
	// Settlement must still be exact (everything clamps immediately).
	g.SettleFlows(settleDT, 3, 0, nil)
	if g.ConservationError() != 0 {
		t.Fatalf("conservation violated: %v", g.ConservationError())
	}
}

// TestSettleFlowHookFallsBack: a flow hook (the mid-batch mutation test
// seam) must force settlement onto the per-batch path rather than
// silently skipping the hook.
func TestSettleFlowHookFallsBack(t *testing.T) {
	g, root := newSettleGraph(units.Joule)
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	tap := mustTap(t, g, root, "t", g.Battery(), r)
	mustRate(t, tap, units.Milliwatts(1))
	visits := 0
	g.flowHook = func(*Tap) { visits++ }
	g.SettleFlows(settleDT, 25, 0, nil)
	if visits != 25 {
		t.Fatalf("flow hook saw %d visits, want 25 (settlement must not bypass the seam)", visits)
	}
	if got := g.SettledBatches(); got != 0 {
		t.Fatalf("settled %d batches despite active flow hook", got)
	}
	if got := g.FlowWalks(); got != 25 {
		t.Fatalf("flow walks = %d, want 25", got)
	}
}

// hoarderTwin is one side of TestReplayMemoInvalidation: the adversarial
// hoarder's tap shape — battery → hoard at a constant rate, a backward
// proportional tax hoard → battery — on a graph with the global decay.
type hoarderTwin struct {
	tbl       *kobj.Table
	g         *Graph
	root      *kobj.Container
	hoard     *Reserve
	grab, tax *Tap
	settled   bool // settle through SettleFlows, or walk Flow batch by batch
}

// build creates the shape on a fresh graph, or on the recycled one after
// Graph.Reset.
func (h *hoarderTwin) build(t *testing.T) {
	t.Helper()
	cfg := Config{BatteryCapacity: 1000 * units.Kilojoule}
	if h.g == nil {
		h.tbl = kobj.NewTable()
		h.root = kobj.NewContainer(h.tbl, nil, label.Public())
		h.g = NewGraph(h.tbl, h.root, label.Public(), cfg)
	} else {
		h.tbl.Reset()
		h.root = kobj.NewContainer(h.tbl, nil, label.Public())
		h.g.Reset(h.tbl, h.root, label.Public(), cfg)
	}
	h.hoard = h.g.NewReserve(h.root, "hoard", label.Public(), ReserveOpts{})
	h.grab = mustTap(t, h.g, h.root, "grab", h.g.Battery(), h.hoard)
	mustRate(t, h.grab, units.Milliwatts(250))
	// A 10 %/s tax, so the hoard settles into its recurring states
	// within minutes rather than hours.
	h.tax = mustTap(t, h.g, h.root, "tax", h.hoard, h.g.Battery())
	mustFrac(t, h.tax, 100_000)
}

// second advances one simulated second: 100 flow batches, then Decay.
func (h *hoarderTwin) second() {
	if h.settled {
		h.g.SettleFlows(settleDT, 100, 0, nil)
	} else {
		for i := 0; i < 100; i++ {
			h.g.Flow(settleDT)
		}
	}
	h.g.Decay(units.Second)
}

// TestReplayMemoInvalidation warms the replay memo on the hoarder shape
// until its chunks recur, then applies each change the memo must notice
// — a new fraction, a new rate, a transfer into the hoard, a new tap on
// the hoard, releasing the grab tap — and checks that the next chunk
// misses and that every chunk matches the per-batch Flow oracle. A
// Graph.Reset with a rebuild of the same shape is not such a change: the
// recycled graph's first chunk hits what the first life stored.
func TestReplayMemoInvalidation(t *testing.T) {
	oracle := &hoarderTwin{}
	subject := &hoarderTwin{settled: true}
	oracle.build(t)
	subject.build(t)
	sec := 0
	step := func() (hit bool) {
		t.Helper()
		h0, m0 := subject.g.memoStats()
		oracle.second()
		subject.second()
		sec++
		os, ss := graphState(oracle.g), graphState(subject.g)
		if os != ss {
			t.Fatalf("second %d: settled state diverged from the per-batch oracle:\n--- oracle ---\n%s--- settled ---\n%s", sec, os, ss)
		}
		h1, m1 := subject.g.memoStats()
		if h1-h0+m1-m0 != 1 {
			t.Fatalf("second %d: %d hits and %d misses, want one replayed chunk", sec, h1-h0, m1-m0)
		}
		return h1 > h0
	}
	// warm runs until 20 consecutive chunks hit: the states recur, and
	// the next chunk would hit too unless something invalidates it.
	warm := func(what string) {
		t.Helper()
		for run, limit := 0, sec+3000; run < 20; {
			if sec == limit {
				t.Fatalf("%s: no 20 consecutive memo hits within 3000 s", what)
			}
			if step() {
				run++
			} else {
				run = 0
			}
		}
	}
	both := func(f func(h *hoarderTwin)) {
		f(oracle)
		f(subject)
	}
	missNext := func(what string) {
		t.Helper()
		if step() {
			t.Fatalf("%s: the next chunk hit the replay memo", what)
		}
	}
	hitNext := func(what string) {
		t.Helper()
		if !step() {
			t.Fatalf("%s: the next chunk missed the replay memo", what)
		}
	}

	warm("initial")
	// The rebuilt graph's plan equals the first life's, and its first
	// chunk starts from the state the first life began from: the memo
	// kept both across Graph.Reset, as a fleet worker's next device
	// needs.
	both(func(h *hoarderTwin) { h.build(t) })
	if hits, misses := subject.g.memoStats(); hits != 0 || misses != 0 {
		t.Fatalf("Graph.Reset left memo counters at %d hits, %d misses", hits, misses)
	}
	hitNext("Graph.Reset and rebuild")

	warm("after Graph.Reset")
	both(func(h *hoarderTwin) { mustFrac(t, h.tax, 150_000) })
	missNext("SetFrac")
	both(func(h *hoarderTwin) { mustFrac(t, h.tax, 100_000) })
	missNext("SetFrac back") // the plan equals an earlier one, but its version is new

	warm("after SetFrac")
	both(func(h *hoarderTwin) { mustRate(t, h.grab, units.Milliwatts(260)) })
	missNext("SetRate")
	both(func(h *hoarderTwin) { mustRate(t, h.grab, units.Milliwatts(250)) })
	missNext("SetRate back")

	warm("after SetRate")
	both(func(h *hoarderTwin) {
		if err := h.g.Transfer(label.Priv{}, h.g.Battery(), h.hoard, units.Joule); err != nil {
			t.Fatal(err)
		}
	})
	missNext("Transfer into the hoard")

	warm("after Transfer")
	both(func(h *hoarderTwin) {
		stash := h.g.NewReserve(h.root, "stash", label.Public(), ReserveOpts{})
		leak := mustTap(t, h.g, h.root, "leak", h.hoard, stash)
		mustRate(t, leak, units.Milliwatts(1))
	})
	missNext("new tap on the hoard")

	warm("after new tap")
	both(func(h *hoarderTwin) {
		if err := h.tbl.Delete(h.grab.ObjectID()); err != nil {
			t.Fatal(err)
		}
	})
	missNext("grab tap released")
}

// relive settles build's graph through the given chunks three times:
// batch by batch (the oracle), settled by a graph that fills the replay
// memo, and settled by a second graph that takes over the first one's
// memo, as the next device on a fleet worker does. It checks both
// settled graphs against the oracle after every chunk and returns the
// second graph's memo hits and misses, with its graph.
func relive(t *testing.T, battery units.Energy, build func(g *Graph, root *kobj.Container) []*Tap, chunks ...int64) (hits, misses int64, second *Graph) {
	t.Helper()
	tw := newTwins(t, battery, 0, build)
	var want []string
	for i, n := range chunks {
		tw.step(n)
		tw.compare(fmt.Sprintf("first life, chunk %d", i))
		want = append(want, graphState(tw.oracle))
	}
	second, root := newSettleGraph(battery)
	build(second, root)
	second.memo = tw.subject.memo
	h0, m0 := second.memoStats()
	for i, n := range chunks {
		second.SettleFlows(settleDT, n, 0, nil)
		if got := graphState(second); got != want[i] {
			t.Fatalf("second life, chunk %d: diverged from the per-batch oracle:\n--- oracle ---\n%s--- second ---\n%s", i, want[i], got)
		}
	}
	h1, m1 := second.memoStats()
	return h1 - h0, m1 - m0, second
}

// TestReplayMemoSkipsStarvedChunks: a constant drain on a sensitive
// reserve clamps once the reserve runs dry. The memo keeps no starved
// sums, so that chunk is not stored: a second graph replaying the same
// chunk misses again, and still matches the oracle.
func TestReplayMemoSkipsStarvedChunks(t *testing.T) {
	var drain *Tap
	hits, misses, second := relive(t, units.Kilojoule, func(g *Graph, root *kobj.Container) []*Tap {
		hoard := g.NewReserve(root, "hoard", label.Public(), ReserveOpts{})
		if err := g.Transfer(label.Priv{}, g.Battery(), hoard, 500); err != nil {
			t.Fatal(err)
		}
		sink := g.NewReserve(root, "sink", label.Public(), ReserveOpts{})
		tax := mustTap(t, g, root, "tax", hoard, g.Battery())
		mustFrac(t, tax, 1000)
		drain = mustTap(t, g, root, "drain", hoard, sink)
		mustRate(t, drain, units.Milliwatts(10)) // 100 µJ a batch: dry within five
		return []*Tap{tax, drain}
	}, 100)
	if drain.Stats().Moved >= units.Milliwatts(10).Over(100*settleDT) {
		t.Fatal("the drain moved all it was entitled to: the chunk does not exercise the clamp")
	}
	if hits != 0 || misses != 1 {
		t.Fatalf("second life: %d hits, %d misses; want the starved chunk unstored and missed", hits, misses)
	}
	if n := second.SettledBatches(); n != 100 {
		t.Fatalf("second life settled %d batches, want the whole chunk", n)
	}
}

// TestReplayMemoClosedFormMoved: a constant tap from outside the
// sensitive set into it never clamps, so the memo stores no moved sum
// for it and a hit telescopes the sum from the start carry. The rate
// leaves a 670/1000 µJ remainder every batch, so the second 37-batch
// chunk starts from a carry of 790 that adds one µJ to its sum; on a
// hit both chunks' moved sums must equal the loop's.
func TestReplayMemoClosedFormMoved(t *testing.T) {
	var grab *Tap
	hits, misses, second := relive(t, units.Kilojoule, func(g *Graph, root *kobj.Container) []*Tap {
		hoard := g.NewReserve(root, "hoard", label.Public(), ReserveOpts{})
		grab = mustTap(t, g, root, "grab", g.Battery(), hoard)
		mustRate(t, grab, 1_234_567) // 12,345.67 µJ a batch
		tax := mustTap(t, g, root, "tax", hoard, g.Battery())
		mustFrac(t, tax, 1000)
		return []*Tap{grab, tax}
	}, 37, 37)
	if hits != 2 || misses != 0 {
		t.Fatalf("second life: %d hits, %d misses; want both chunks hit", hits, misses)
	}
	if !second.memo.plan[0].closedForm() || second.memo.plan[1].closedForm() {
		t.Fatalf("plan %+v: want the grab closed-form and the tax not", second.memo.plan)
	}
	if want := units.Energy(74 * 1_234_567 * int64(settleDT) / 1000); grab.Stats().Moved != want {
		t.Fatalf("grab moved %d µJ over 74 batches, want %d", grab.Stats().Moved, want)
	}
}

// TestReplayMemoDerivedEndState: a hit rebuilds the end levels from the
// start levels and the moved sums, and a closed-form tap's end carry from
// its start carry, since the memo stores neither. The replay set holds a
// frac chain (head → tail → battery, both proportional), a constant tap
// between the two sensitive reserves (tail → head, not closed-form), and
// two closed-form taps into them: grab from the battery, starting at a
// carry of 670, and owe from an outside reserve, starting at −230 (a
// proportional draw on that reserve while it was in debt left it, and
// SetRate keeps it). A second graph sharing the memo must hit every
// chunk and match the per-batch oracle.
func TestReplayMemoDerivedEndState(t *testing.T) {
	hits, misses, second := relive(t, units.Kilojoule, func(g *Graph, root *kobj.Container) []*Tap {
		fund := func(r *Reserve, e units.Energy) {
			t.Helper()
			if err := g.Transfer(label.Priv{}, g.Battery(), r, e); err != nil {
				t.Fatal(err)
			}
		}
		debtor := g.NewReserve(root, "debtor", label.Public(), ReserveOpts{AllowDebt: true})
		if err := debtor.DebitSelf(label.Priv{}, 123_457); err != nil {
			t.Fatal(err)
		}
		head := g.NewReserve(root, "head", label.Public(), ReserveOpts{})
		tail := g.NewReserve(root, "tail", label.Public(), ReserveOpts{})
		fund(head, units.Joule)
		fund(tail, units.Joule)
		grab := mustTap(t, g, root, "grab", g.Battery(), head)
		mustRate(t, grab, 1_234_567) // 12,345.67 µJ a batch
		owe := mustTap(t, g, root, "owe", debtor, tail)
		mustFrac(t, owe, 1000)
		g.Flow(settleDT)
		fund(debtor, units.Joule)
		mustRate(t, owe, 7) // 0.07 µJ a batch: the carry is still negative after three
		if grab.carry != 670 || owe.carry != -230 {
			t.Fatalf("start carries grab %d, owe %d; want 670 and -230", grab.carry, owe.carry)
		}
		fwd := mustTap(t, g, root, "fwd", head, tail)
		mustFrac(t, fwd, 100_000)
		back := mustTap(t, g, root, "back", tail, g.Battery())
		mustFrac(t, back, 50_000)
		pass := mustTap(t, g, root, "pass", tail, head)
		mustRate(t, pass, units.Milliwatts(10))
		return []*Tap{grab, owe, fwd, back, pass}
	}, 37, 37, 100)
	if hits != 3 || misses != 0 {
		t.Fatalf("second life: %d hits, %d misses; want every chunk hit", hits, misses)
	}
	closed := []bool{true, true, false, false, false}
	for i, s := range second.memo.plan {
		if s.closedForm() != closed[i] {
			t.Fatalf("plan %+v: want grab and owe closed-form and the rest not", second.memo.plan)
		}
	}
}

// TestReplayMemoSkipsWideMovedSums: a value word holds a tap's moved sum
// above its end carry's 16-bit lane, so a chunk whose moved sum that is
// not closed-form reaches 2⁴⁷ µJ is not stored: a second graph replaying
// the same chunk misses again, and still matches the oracle. The drain
// moves exactly 2⁴⁷ µJ, the first sum that does not fit.
func TestReplayMemoSkipsWideMovedSums(t *testing.T) {
	var drain *Tap
	hits, misses, second := relive(t, 1_000_000*units.Kilojoule, func(g *Graph, root *kobj.Container) []*Tap {
		hoard := g.NewReserve(root, "hoard", label.Public(), ReserveOpts{})
		if err := g.Transfer(label.Priv{}, g.Battery(), hoard, 300_000*units.Kilojoule); err != nil {
			t.Fatal(err)
		}
		sink := g.NewReserve(root, "sink", label.Public(), ReserveOpts{})
		tax := mustTap(t, g, root, "tax", hoard, g.Battery())
		mustFrac(t, tax, 1000)
		drain = mustTap(t, g, root, "drain", hoard, sink)
		mustRate(t, drain, 1<<47) // 2⁴⁷ µJ a second
		return []*Tap{tax, drain}
	}, 100)
	if drain.Stats().Moved != 1<<47 {
		t.Fatalf("the drain moved %d µJ, want 2⁴⁷", drain.Stats().Moved)
	}
	if hits != 0 || misses != 1 {
		t.Fatalf("second life: %d hits, %d misses; want the wide chunk unstored and missed", hits, misses)
	}
	if n := second.SettledBatches(); n != 100 {
		t.Fatalf("second life settled %d batches, want the whole chunk", n)
	}
}

// TestReplayMemoHoldsHoarderLife: the memo holds a whole converged
// hoarder life, so a recycled graph rebuilt with the same shape — a
// fleet worker's next device — replays almost nothing of its first
// 1,000 seconds, which retrace the first life's chunks from its start.
func TestReplayMemoHoldsHoarderLife(t *testing.T) {
	g, _, second := hoarderBench(t)
	hoarderConverge(t, g, second)
	g, _, second = hoarderLife(t, g)
	for i := 0; i < 1000; i++ {
		second()
	}
	hits, misses := g.memoStats()
	if hits+misses != 1000 {
		t.Fatalf("%d replayed chunks in 1,000 seconds, want one a second", hits+misses)
	}
	if misses >= 10 {
		t.Fatalf("%d of the second life's first 1,000 chunks missed the replay memo, want under 1%%", misses)
	}
}
