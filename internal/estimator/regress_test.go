package estimator

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/snap"
	"repro/internal/units"
)

// seeded builds an estimator in the post-construction state without a
// radio rig: α set, profile prior folded in, min at its sentinel.
func seeded(alphaPct int64, prior units.Energy) *ActivationEstimator {
	return &ActivationEstimator{alphaPct: alphaPct, estimate: prior, min: units.MaxEnergy}
}

func TestSmallCorrectionsEscapeTruncationDeadBand(t *testing.T) {
	// Regression for the integer-truncation bias: with α = 25 %, a
	// correction of −2 µJ scales to −50/100. Truncation toward zero
	// discards it and the estimate never moves; rounding half away from
	// zero steps it down 1 µJ per observation until the delta is inside
	// the half-granule (100/2α = 2 µJ).
	e := seeded(25, 1000)
	for i := 0; i < 10; i++ {
		e.Observe(998)
	}
	if got := e.Estimate(); got != 999 {
		t.Fatalf("estimate = %d µJ after ten −2 µJ corrections, want 999 (truncating EWMA sticks at 1000)", got)
	}
}

func TestOutlierRatchetWalksBackDown(t *testing.T) {
	// The failure mode the fix addresses end-to-end: one high outlier
	// ratchets the estimate up, then a stream of observations at the
	// true cost must walk it back. A truncating EWMA stalls as soon as
	// |cost − estimate|·α < 100 — at α = 25 % that parks the estimate
	// 3 µJ high forever; the rounded update converges to within the
	// half-granule.
	const truth = units.Energy(1000)
	e := seeded(25, truth)
	e.Observe(1300)
	if e.Estimate() <= truth {
		t.Fatalf("outlier did not raise the estimate: %d", e.Estimate())
	}
	for i := 0; i < 50; i++ {
		e.Observe(truth)
	}
	if got := e.Estimate(); got > truth+2 {
		t.Fatalf("estimate = %d µJ after walking back, want ≤ %d (truncating EWMA parks at %d)",
			got, truth+2, truth+3)
	}
}

func TestBoundsZeroBeforeFirstObservation(t *testing.T) {
	_, r := newRadioRig(t, false)
	e := NewActivationEstimator(r, 0)
	if min, max := e.Bounds(); min != 0 || max != 0 {
		t.Fatalf("fresh Bounds() = (%d, %d), want (0, 0) — min sentinel leaked", min, max)
	}
	e.Observe(units.Joules(7))
	if min, max := e.Bounds(); min != units.Joules(7) || max != units.Joules(7) {
		t.Fatalf("Bounds() after one obs = (%v, %v), want both 7 J", min, max)
	}
}

func snapBytes(t *testing.T, e *ActivationEstimator) []byte {
	t.Helper()
	b, err := snap.Save(e.Codec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSnapshotRoundTrip(t *testing.T) {
	e := seeded(25, units.Joules(9.5))
	for _, c := range []units.Energy{units.Joules(8), units.Joules(11), units.Joules(9.2)} {
		e.Observe(c)
	}
	b := snapBytes(t, e)

	e2 := seeded(25, units.Joules(9.5))
	if err := snap.Load(b, e2.Codec); err != nil {
		t.Fatal(err)
	}
	if e2.String() != e.String() {
		t.Fatalf("restored state %q != original %q", e2, e)
	}
	// Byte-equality is the bar the fleet resume path holds snapshots
	// to: re-serializing the restored estimator must reproduce the
	// original snapshot exactly.
	if !bytes.Equal(snapBytes(t, e2), b) {
		t.Fatal("re-snapshot of restored estimator differs from original")
	}
}

func TestRestoreRejectsAlphaMismatch(t *testing.T) {
	e := seeded(25, units.Joules(9.5))
	e.Observe(units.Joules(9))
	e2 := seeded(30, units.Joules(9.5))
	if err := snap.Load(snapBytes(t, e), e2.Codec); err == nil || !strings.Contains(err.Error(), "α") {
		t.Fatalf("α mismatch restore err = %v, want loud α complaint", err)
	}
}

func TestRestoreRejectsOversizedHistory(t *testing.T) {
	// A snapshot claiming more history than the 64-entry ring must fail
	// loudly instead of silently growing the ring (or reading garbage).
	w := snap.NewWriter()
	w.Section("estimator")
	w.I64(25)          // α
	w.I64(9_500_000)   // estimate
	w.I64(65)          // observations
	w.I64(1)           // min
	w.I64(100_000_000) // max
	w.U64(65)          // history length over the cap
	for i := 0; i < 65; i++ {
		w.I64(1)
	}
	b, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	e := seeded(25, units.Joules(9.5))
	if err := snap.Load(b, e.Codec); err == nil || !strings.Contains(err.Error(), "caps at 64") {
		t.Fatalf("oversized history restore err = %v, want ring-cap complaint", err)
	}
}
