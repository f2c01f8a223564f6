package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestExactBelowSubBucketRange(t *testing.T) {
	var h Hist
	for v := int64(0); v < 1<<SubBits; v++ {
		h.Add(v)
	}
	// Every value below 2^SubBits is its own bucket: quantiles are exact.
	if got := h.Quantile(50); got != 63 {
		t.Fatalf("p50 = %d, want 63", got)
	}
	if got := h.Quantile(100); got != 127 {
		t.Fatalf("p100 = %d, want 127", got)
	}
}

func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Hist
	var samples []int64
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(600_000_000) // a week in milliseconds
		samples = append(samples, v)
		h.Add(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []int{1, 10, 50, 90, 99} {
		rank := (p*len(samples) + 99) / 100
		if rank < 1 {
			rank = 1
		}
		exact := samples[rank-1]
		got := h.Quantile(p)
		// The sketch reports the bucket lower bound: got ≤ exact and
		// within one part in 2^SubBits.
		if got > exact {
			t.Fatalf("p%d: sketch %d above exact %d", p, got, exact)
		}
		if exact-got > exact>>SubBits+1 {
			t.Fatalf("p%d: sketch %d too far below exact %d", p, got, exact)
		}
	}
}

func TestMergeOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var whole Hist
	parts := make([]*Hist, 4)
	for i := range parts {
		parts[i] = &Hist{}
	}
	for i := 0; i < 2000; i++ {
		v := rng.Int63n(1 << 40)
		whole.Add(v)
		parts[i%4].Add(v)
	}
	// Merge the shards in a scrambled order; counters must match the
	// single-histogram build exactly.
	var merged Hist
	for _, i := range []int{2, 0, 3, 1} {
		merged.Merge(parts[i])
	}
	if merged.n != whole.n {
		t.Fatalf("n %d != %d", merged.n, whole.n)
	}
	for _, p := range []int{5, 50, 95} {
		if merged.Quantile(p) != whole.Quantile(p) {
			t.Fatalf("p%d differs: %d vs %d", p, merged.Quantile(p), whole.Quantile(p))
		}
	}
}

func TestSparseRoundTrip(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 999, 1 << 30, 1 << 40} {
		h.Add(v)
	}
	var back Hist
	h.Each(func(idx int, count uint64) { back.AddBucket(idx, count) })
	if back.n != h.n {
		t.Fatalf("n %d != %d", back.n, h.n)
	}
	for p := 0; p <= 100; p += 10 {
		if back.Quantile(p) != h.Quantile(p) {
			t.Fatalf("p%d differs", p)
		}
	}
}

func TestBucketRepresentativeIsLowerBound(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 1000, 12345, 1 << 20, 604800000} {
		idx := bucketIndex(v)
		lb := lowerBound(idx)
		if lb > v {
			t.Fatalf("lowerBound(%d)=%d above value %d", idx, lb, v)
		}
		if bucketIndex(lb) != idx {
			t.Fatalf("lowerBound(%d)=%d maps to bucket %d", idx, lb, bucketIndex(lb))
		}
	}
}

func TestNegativeClampsToZero(t *testing.T) {
	var h Hist
	h.Add(-5)
	if got := h.Quantile(100); got != 0 {
		t.Fatalf("negative sample bucketed at %d", got)
	}
}

func TestMaxIndexIsTopSlot(t *testing.T) {
	if got := bucketIndex(math.MaxInt64); got != MaxIndex {
		t.Fatalf("bucketIndex(MaxInt64) = %d, MaxIndex = %d", got, MaxIndex)
	}
}
