// Package sketch provides the deterministic, mergeable quantile
// histogram the fleet aggregator uses for per-device distributions
// (time-to-battery-exhaustion percentiles). A straight percentile needs
// every sample retained — O(dead devices) memory, the last
// super-constant consumer in a million-device report — while Hist keeps
// a fixed array of integer counters whose size depends only on the
// value range.
//
// The layout is HDR-histogram style log-linear bucketing: values below
// 2^SubBits are exact; above, each power-of-two octave is split into
// 2^SubBits linear sub-buckets, so the relative error of a quantile is
// bounded by 2^-SubBits (< 0.8 % at SubBits = 7). Everything is integer
// arithmetic: merging is element-wise counter addition, which is
// associative and commutative, so a merged set of shard histograms is
// byte-for-byte the histogram a single process would have built — the
// property the shard-merge invariance suite asserts.
package sketch

import "math/bits"

// SubBits is the per-octave resolution: 2^SubBits linear sub-buckets
// per power of two, giving a worst-case quantile error of 2^-SubBits
// (≈0.78 %).
const SubBits = 7

// MaxIndex is the last counter slot any sample can occupy: the slot of
// math.MaxInt64 (the top sub-bucket of octave 62). A sparse form naming
// a slot past it did not come from a Hist.
const MaxIndex = (63-SubBits)<<SubBits + 1<<SubBits - 1

// Hist is a mergeable log-linear histogram of non-negative int64
// samples. The zero value is ready to use.
type Hist struct {
	counts []uint64
	n      uint64
}

// bucketIndex maps a value to its counter slot.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<SubBits {
		return int(v)
	}
	// The mantissa's top SubBits+1 bits select the sub-bucket within the
	// value's octave.
	e := bits.Len64(uint64(v)) - 1 // position of the MSB, ≥ SubBits
	shift := uint(e - SubBits)
	return int(uint64(e-SubBits+1)<<SubBits) + int(uint64(v)>>shift) - (1 << SubBits)
}

// lowerBound returns the smallest value mapping to the given slot — the
// representative a quantile query reports.
func lowerBound(idx int) int64 {
	if idx < 1<<SubBits {
		return int64(idx)
	}
	octave := idx>>SubBits - 1
	mantissa := int64(idx&(1<<SubBits-1)) + 1<<SubBits
	return mantissa << uint(octave)
}

// Add records one sample. Negative samples clamp to zero.
func (h *Hist) Add(v int64) {
	idx := bucketIndex(v)
	if idx >= len(h.counts) {
		grown := make([]uint64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx]++
	h.n++
}

// Merge adds every counter of other into h. Merging is associative and
// commutative, so any grouping of shard histograms produces identical
// counters.
func (h *Hist) Merge(other *Hist) {
	if len(other.counts) > len(h.counts) {
		grown := make([]uint64, len(other.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
}

// Quantile returns the nearest-rank p-th percentile: the lower bound of
// the bucket containing the sample of rank ⌈p·n/100⌉ (rank clamped to
// ≥ 1). An empty histogram returns 0.
func (h *Hist) Quantile(p int) int64 {
	if h.n == 0 {
		return 0
	}
	rank := (uint64(p)*h.n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return lowerBound(i)
		}
	}
	return lowerBound(len(h.counts) - 1)
}

// Each calls fn for every non-empty bucket in index order with the
// bucket's slot index and count — the sparse form shard reports
// serialize.
func (h *Hist) Each(fn func(idx int, count uint64)) {
	for i, c := range h.counts {
		if c > 0 {
			fn(i, c)
		}
	}
}

// AddBucket adds count samples directly into the given slot index, the
// inverse of Each for deserializing a sparse shard report. Invalid
// indexes (negative) are ignored.
func (h *Hist) AddBucket(idx int, count uint64) {
	if idx < 0 || count == 0 {
		return
	}
	if idx >= len(h.counts) {
		grown := make([]uint64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx] += count
	h.n += count
}
