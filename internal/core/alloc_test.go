package core

import (
	"testing"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// allocGraph builds a graph with a constant and a proportional tap
// carrying rates, so Flow and SettleFlows exercise both the telescoped
// and the replayed settlement paths.
func allocGraph(tb testing.TB) *Graph {
	tb.Helper()
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, label.Public())
	g := NewGraph(tbl, root, label.Public(), Config{BatteryCapacity: 1000 * units.Kilojoule})
	app := g.NewReserve(root, "app", label.Public(), ReserveOpts{})
	pool := g.NewReserve(root, "pool", label.Public(), ReserveOpts{})
	p := label.NewPriv()
	ct, err := g.NewTap(root, "const", p, g.Battery(), app, label.Public())
	if err != nil {
		tb.Fatal(err)
	}
	if err := ct.SetRate(p, units.Milliwatts(250)); err != nil {
		tb.Fatal(err)
	}
	pt, err := g.NewTap(root, "prop", p, app, pool, label.Public())
	if err != nil {
		tb.Fatal(err)
	}
	if err := pt.SetFrac(p, 100_000); err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestFlowZeroAllocs guards the per-batch tap walk: a steady-state Flow
// call must not allocate (the snapshot buffer is reused).
func TestFlowZeroAllocs(t *testing.T) {
	g := allocGraph(t)
	dt := 10 * units.Millisecond
	g.Flow(dt) // warm the scratch buffer
	if n := testing.AllocsPerRun(200, func() { g.Flow(dt) }); n != 0 {
		t.Fatalf("Flow allocates %v times per batch, want 0", n)
	}
}

// TestSettleFlowsZeroAllocs guards closed-form settlement: planning and
// settling a chunk must not allocate once the partition buffers are
// warm.
func TestSettleFlowsZeroAllocs(t *testing.T) {
	g := allocGraph(t)
	dt := 10 * units.Millisecond
	g.SettleFlows(dt, 16, units.Milliwatts(700), nil)
	if n := testing.AllocsPerRun(100, func() { g.SettleFlows(dt, 16, units.Milliwatts(700), nil) }); n != 0 {
		t.Fatalf("SettleFlows allocates %v times per call, want 0", n)
	}
}

// TestConsumeFailureZeroAllocs guards the insufficient-energy error
// path: failing consumptions are the steady state of a dead battery and
// of throttled threads, and must not allocate (each reserve embeds its
// reusable error instance).
func TestConsumeFailureZeroAllocs(t *testing.T) {
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, label.Public())
	g := NewGraph(tbl, root, label.Public(), Config{BatteryCapacity: units.Microjoule})
	p := label.NewPriv()
	if err := g.Battery().Consume(p, units.Joule); err == nil {
		t.Fatal("consume from near-empty battery succeeded")
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = g.Battery().Consume(p, units.Joule)
	}); n != 0 {
		t.Fatalf("failing Consume allocates %v times per call, want 0", n)
	}
	r := g.NewReserve(root, "nodebt", label.Public(), ReserveOpts{})
	if n := testing.AllocsPerRun(200, func() {
		_ = r.DebitSelf(p, units.Joule)
	}); n != 0 {
		t.Fatalf("failing DebitSelf allocates %v times per call, want 0", n)
	}
}

// BenchmarkSteadyGraphFlow is a CI-guarded steady-state benchmark: it
// must report 0 B/op (the bench smoke greps for SteadyAlloc-guarded
// names and fails on any heap bytes).
func BenchmarkSteadyGraphFlow(b *testing.B) {
	g := allocGraph(b)
	dt := 10 * units.Millisecond
	g.Flow(dt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Flow(dt)
	}
}

// BenchmarkSteadySettleFlows: closed-form settlement of a 16-batch
// chunk; CI-guarded to 0 B/op.
func BenchmarkSteadySettleFlows(b *testing.B) {
	g := allocGraph(b)
	dt := 10 * units.Millisecond
	g.SettleFlows(dt, 16, units.Milliwatts(700), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SettleFlows(dt, 16, units.Milliwatts(700), nil)
	}
}

// hoarderBench builds the adversarial hoarder's tap shape on a new graph
// (hoarderLife) and settles ten minutes: the hoard fills toward its
// equilibrium.
func hoarderBench(b testing.TB) (g *Graph, hoard *Reserve, second func()) {
	b.Helper()
	g, hoard, second = hoarderLife(b, nil)
	for i := 0; i < 600; i++ {
		second()
	}
	return g, hoard, second
}

// hoarderLife builds the adversarial hoarder's tap shape — battery →
// hoard at 250 mW, hoard → battery at 1000 PPM, decay on — on a new
// graph when g is nil, and otherwise on g recycled through Graph.Reset,
// as a fleet worker recycles it for its next device. It returns the
// graph, the hoard, and one simulated second settled the way the kernel
// parks it: a 100-batch SettleFlows chunk, then Decay(1 s). The
// proportional tap makes the hoard sensitive, so every batch is replayed.
func hoarderLife(b testing.TB, g *Graph) (_ *Graph, hoard *Reserve, second func()) {
	b.Helper()
	cfg := Config{BatteryCapacity: 1000 * units.Kilojoule}
	tbl := kobj.NewTable()
	if g != nil {
		tbl = g.table
		tbl.Reset()
	}
	root := kobj.NewContainer(tbl, nil, label.Public())
	if g == nil {
		g = NewGraph(tbl, root, label.Public(), cfg)
	} else {
		g.Reset(tbl, root, label.Public(), cfg)
	}
	hoard = g.NewReserve(root, "hoard", label.Public(), ReserveOpts{})
	p := label.NewPriv()
	grab, err := g.NewTap(root, "grab", p, g.Battery(), hoard, label.Public())
	if err != nil {
		b.Fatal(err)
	}
	if err := grab.SetRate(p, units.Milliwatts(250)); err != nil {
		b.Fatal(err)
	}
	tax, err := g.NewTap(root, "tax", p, hoard, g.Battery(), label.Public())
	if err != nil {
		b.Fatal(err)
	}
	if err := tax.SetFrac(p, 1000); err != nil {
		b.Fatal(err)
	}
	second = func() {
		g.SettleFlows(10*units.Millisecond, hoarderBatches, 0, nil)
		g.Decay(units.Second)
	}
	return g, hoard, second
}

// hoarderConverge settles until the hoard's level has converged and
// 1000 consecutive chunks were answered by the replay memo (about three
// simulated hours).
func hoarderConverge(b testing.TB, g *Graph, second func()) {
	b.Helper()
	for run, s := 0, 0; run < 1000; s++ {
		if s == 100_000 {
			b.Fatal("the hoarder's chunks never recurred")
		}
		hits, _ := g.memoStats()
		second()
		if h, _ := g.memoStats(); h > hits {
			run++
		} else {
			run = 0
		}
	}
}

const hoarderBatches = 100

// BenchmarkSteadySettleHoarder: the hoarder's seconds once they recur.
// Set-up settles until they do (hoarderConverge), so ns/batch is the
// memo's hit path. CI-guarded to 0 B/op.
func BenchmarkSteadySettleHoarder(b *testing.B) {
	g, _, second := hoarderBench(b)
	hoarderConverge(b, g, second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		second()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hoarderBatches), "ns/batch")
}

// BenchmarkSteadySettleHoarderRelife: the hoarder's seconds on a
// recycled graph. Set-up runs one life until it converges, then resets
// the graph and rebuilds the same shape; ns/batch is the second life's
// seconds from its start, whose chunks the first life already stored in
// the memo the graph kept. CI-guarded to 0 B/op.
func BenchmarkSteadySettleHoarderRelife(b *testing.B) {
	g, _, second := hoarderBench(b)
	hoarderConverge(b, g, second)
	g, _, second = hoarderLife(b, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		second()
	}
	b.StopTimer()
	_, misses := g.memoStats()
	b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hoarderBatches), "ns/batch")
}

// BenchmarkSteadySettleHoarderMiss: the same seconds, but before each
// chunk the hoard is moved to 1 µJ above the level the previous chunk
// started from, so no start state repeats and every chunk misses the
// replay memo: ns/batch is the flat replay loop's, plus the memo's
// lookup and store. CI-guarded to 0 B/op.
func BenchmarkSteadySettleHoarderMiss(b *testing.B) {
	g, hoard, second := hoarderBench(b)
	start := hoard.level
	perturb := func() {
		start++
		var err error
		if d := start - hoard.level; d > 0 {
			err = g.Transfer(label.Priv{}, g.Battery(), hoard, d)
		} else {
			err = g.Transfer(label.Priv{}, hoard, g.Battery(), -d)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	_, misses := g.memoStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perturb()
		second()
	}
	b.StopTimer()
	if _, m := g.memoStats(); m-misses != int64(b.N) {
		b.Fatalf("%d of %d chunks missed the replay memo, want all", m-misses, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hoarderBatches), "ns/batch")
}
