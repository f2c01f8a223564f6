package core

import (
	"errors"
	"testing"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// TestReleaseReserveDeactivatesTaps is the regression test for the
// quiescence-defeating leak: deleting a reserve used to leave taps whose
// endpoint died in the active set forever — Flow skipped them as dead,
// but the active set stayed non-empty, so the kernel's batch tasks never
// parked again.
func TestReleaseReserveDeactivatesTaps(t *testing.T) {
	g, root := testGraph(Config{})
	// The tap lives in root, the reserve in its own container, so
	// deleting the reserve's container does NOT release the tap.
	rc := kobj.NewContainer(g.table, root, label.Public())
	res := g.NewReserve(rc, "app-reserve", label.Public(), ReserveOpts{})
	tap, err := g.NewTap(root, "app-tap", anyone, g.Battery(), res, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	if err := tap.SetRate(anyone, units.Milliwatts(5)); err != nil {
		t.Fatal(err)
	}
	if len(g.active) != 1 {
		t.Fatalf("active taps = %d, want 1", len(g.active))
	}

	if err := g.table.Delete(rc.ObjectID()); err != nil {
		t.Fatal(err)
	}
	if tap.dead {
		t.Fatal("tap should survive its sink's deletion (it lives in root)")
	}
	if got := len(g.active); got != 0 {
		t.Fatalf("active taps = %d after sink deletion, want 0", got)
	}

	// The orphaned tap must stay inert: no re-activation through the
	// rate setters, no movement through Flow.
	if err := tap.SetRate(anyone, units.Milliwatts(7)); !errors.Is(err, ErrDead) {
		t.Fatalf("SetRate on orphaned tap: err = %v, want ErrDead", err)
	}
	if err := tap.SetFrac(anyone, 100_000); !errors.Is(err, ErrDead) {
		t.Fatalf("SetFrac on orphaned tap: err = %v, want ErrDead", err)
	}
	if len(g.active) != 0 {
		t.Fatalf("active taps = %d after rejected reactivation, want 0", len(g.active))
	}
	before, _ := g.Battery().Level(anyone)
	g.Flow(units.Second)
	after, _ := g.Battery().Level(anyone)
	if before != after {
		t.Fatalf("orphaned tap moved energy: battery %v -> %v", before, after)
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation error %v", g.ConservationError())
	}
}

// TestReleaseSourceReserveDeactivatesTaps covers the symmetric case: the
// tap's *source* dies.
func TestReleaseSourceReserveDeactivatesTaps(t *testing.T) {
	g, root := testGraph(Config{})
	src := g.NewReserve(root, "src", label.Public(), ReserveOpts{})
	sink := g.NewReserve(root, "sink", label.Public(), ReserveOpts{})
	if err := g.Transfer(anyone, g.Battery(), src, units.Joule); err != nil {
		t.Fatal(err)
	}
	tap, err := g.NewTap(root, "t", anyone, src, sink, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	if err := tap.SetFrac(anyone, 100_000); err != nil {
		t.Fatal(err)
	}
	if err := g.table.Delete(src.ObjectID()); err != nil {
		t.Fatal(err)
	}
	if got := len(g.active); got != 0 {
		t.Fatalf("active taps = %d after source deletion, want 0", got)
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation error %v", g.ConservationError())
	}
}

// TestReleaseReserveInDebtConservesEnergy: deleting a reserve whose
// after-the-fact billing (§5.5.2) left it in debt must not create
// energy — the battery absorbs the unsourced consumption.
func TestReleaseReserveInDebtConservesEnergy(t *testing.T) {
	g, root := testGraph(Config{})
	rc := kobj.NewContainer(g.table, root, label.Public())
	res := g.NewReserve(rc, "debtor", label.Public(), ReserveOpts{AllowDebt: true})
	if err := res.DebitSelf(anyone, units.Joule); err != nil {
		t.Fatal(err)
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation error %v while debt is held", g.ConservationError())
	}
	before, _ := g.Battery().Level(anyone)
	if err := g.table.Delete(rc.ObjectID()); err != nil {
		t.Fatal(err)
	}
	after, _ := g.Battery().Level(anyone)
	if got := before - after; got != units.Joule {
		t.Fatalf("battery absorbed %v of debt, want 1 J", got)
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation error %v after deleting a reserve in debt", g.ConservationError())
	}
}

// TestFlowSnapshotSurvivesMidBatchRelease pins Flow's snapshot
// semantics: releasing a tap from a callback reached during the batch
// (which compacts the active set in place) must not shift the next
// active tap out of the current batch. Before the fix, releasing the
// tap at index i skipped the tap that slid into i+1.
func TestFlowSnapshotSurvivesMidBatchRelease(t *testing.T) {
	g, root := testGraph(Config{})
	mk := func(name string) (*Reserve, *Tap) {
		r := g.NewReserve(root, name+"-res", label.Public(), ReserveOpts{})
		tp, err := g.NewTap(root, name+"-tap", anyone, g.Battery(), r, label.Public())
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.SetRate(anyone, units.Milliwatts(1)); err != nil {
			t.Fatal(err)
		}
		return r, tp
	}
	resA, tapA := mk("a")
	resB, tapB := mk("b")
	resC, tapC := mk("c")

	// From within tap A's slot of the batch, release tap B — the next
	// entry of the active set — compacting the slice under the batch.
	g.flowHook = func(cur *Tap) {
		if cur == tapA && !tapB.dead {
			if err := g.table.Delete(tapB.ObjectID()); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Flow(units.Second)
	g.flowHook = nil

	lvl := func(r *Reserve) units.Energy {
		v, err := r.Level(anyone)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	want := units.Milliwatts(1).Over(units.Second)
	if got := lvl(resA); got != want {
		t.Fatalf("tap A moved %v, want %v", got, want)
	}
	if got := lvl(resB); got != 0 {
		t.Fatalf("released tap B moved %v, want 0", got)
	}
	// The regression: C used to be skipped for the batch after B's slot
	// compacted away.
	if got := lvl(resC); got != want {
		t.Fatalf("tap C moved %v, want %v (skipped by mid-batch compaction?)", got, want)
	}
	if tapC.dead || len(g.active) != 2 {
		t.Fatalf("active taps = %d, want 2 (A and C)", len(g.active))
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation error %v", g.ConservationError())
	}
}

// TestFlowSnapshotMidBatchZeroing: a tap zeroed mid-batch stays in the
// snapshot but moves nothing; a tap activated mid-batch starts next
// batch.
func TestFlowSnapshotMidBatchZeroing(t *testing.T) {
	g, root := testGraph(Config{})
	mk := func(name string, rate units.Power) (*Reserve, *Tap) {
		r := g.NewReserve(root, name+"-res", label.Public(), ReserveOpts{})
		tp, err := g.NewTap(root, name+"-tap", anyone, g.Battery(), r, label.Public())
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.SetRate(anyone, rate); err != nil {
			t.Fatal(err)
		}
		return r, tp
	}
	resA, tapA := mk("a", units.Milliwatts(1))
	resB, tapB := mk("b", units.Milliwatts(1))
	resC, tapC := mk("c", 0) // inactive

	g.flowHook = func(cur *Tap) {
		if cur != tapA {
			return
		}
		// Zero the next active tap and activate a third.
		if err := tapB.SetRate(anyone, 0); err != nil {
			t.Fatal(err)
		}
		if err := tapC.SetRate(anyone, units.Milliwatts(1)); err != nil {
			t.Fatal(err)
		}
	}
	g.Flow(units.Second)
	g.flowHook = nil

	lvl := func(r *Reserve) units.Energy {
		v, err := r.Level(anyone)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	want := units.Milliwatts(1).Over(units.Second)
	if got := lvl(resA); got != want {
		t.Fatalf("tap A moved %v, want %v", got, want)
	}
	if got := lvl(resB); got != 0 {
		t.Fatalf("zeroed tap B moved %v, want 0", got)
	}
	if got := lvl(resC); got != 0 {
		t.Fatalf("tap C activated mid-batch moved %v this batch, want 0", got)
	}
	g.Flow(units.Second)
	if got := lvl(resC); got != want {
		t.Fatalf("tap C moved %v next batch, want %v", got, want)
	}
}
