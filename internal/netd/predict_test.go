package netd

// The pool-crossing prediction in closed form (crossingSweep) checked
// against the per-sweep walk it replaced, kept here as the oracle.

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/label"
	"repro/internal/radio"
	"repro/internal/units"
)

// predictFireLoop is the per-sweep walk: at every boundary each tap
// credits ⌊(rdm + carry)/1000⌋ µJ and keeps the remainder as its carry,
// then every waiter's positive level drains into the pool. It returns
// the first sweep after which the pool holds need, or maxSweeps. It
// multiplies nothing by the sweep count, so it cannot overflow where
// crossingSweep's products might.
func predictFireLoop(taps []predTap, lvls []int64, pool, need, maxSweeps int64) int64 {
	taps = append([]predTap(nil), taps...)
	lvls = append([]int64(nil), lvls...)
	for s := int64(1); s <= maxSweeps; s++ {
		for ti := range taps {
			t := &taps[ti]
			tot := t.rdm + t.carry
			t.carry = tot % 1000
			lvls[t.w] += tot / 1000
		}
		for wi := range lvls {
			if lvls[wi] > 0 {
				pool += lvls[wi]
				lvls[wi] = 0
			}
		}
		if pool >= need {
			return s
		}
	}
	return maxSweeps
}

// rateCap is the largest per-sweep numerator planSettle admits:
// rate·batch ≤ horizonCap (math.MaxInt64/4) with one batch per sweep.
const rateCap = math.MaxInt64 / 4

type predictCase struct {
	name       string
	taps       []predTap
	lvls       []int64
	pool, need int64
	maxSweeps  int64
}

var predictCases = []predictCase{
	{name: "no waiters, pool short", need: 5, maxSweeps: 3},
	{name: "no waiters, pool full", pool: 5, need: 5, maxSweeps: 3},
	{name: "pool over need with debt", lvls: []int64{-7000}, pool: 9, need: 5, maxSweeps: sweepCap},
	{name: "waiter without taps", lvls: []int64{0}, need: 1, maxSweeps: sweepCap},
	{name: "zero rate, positive carry", taps: []predTap{{rdm: 0, carry: 999}}, lvls: []int64{0}, need: 1, maxSweeps: 3},
	{name: "zero rate, negative carry", taps: []predTap{{rdm: 0, carry: -999}}, lvls: []int64{0}, need: 1, maxSweeps: 2},
	// 1 µJ a sweep: the crossing lands exactly on the last sweep, and one
	// µJ more is never reached.
	{name: "crossing on maxSweeps", taps: []predTap{{rdm: 1000}}, lvls: []int64{0}, need: 3, maxSweeps: 3},
	{name: "crossing past maxSweeps", taps: []predTap{{rdm: 1000}}, lvls: []int64{0}, need: 4, maxSweeps: 3},
	{name: "crossing on sweepCap", taps: []predTap{{rdm: 1000}}, lvls: []int64{0}, need: sweepCap, maxSweeps: sweepCap},
	// A negative carry left by a proportional phase credits nothing
	// until the walk's total turns non-negative.
	{name: "negative carry", taps: []predTap{{rdm: 300, carry: -900}}, lvls: []int64{0}, need: 2, maxSweeps: sweepCap},
	{name: "debt repaid first", taps: []predTap{{rdm: 1_000_000, carry: 500}}, lvls: []int64{-5000}, pool: 10, need: 3010, maxSweeps: sweepCap},
	// rdm·s stays exact up to the crossing near sweep 7,994 (8.9·10¹⁸),
	// and saturates only past it.
	{name: "products near int64's edge", taps: []predTap{{rdm: 1 << 50}}, lvls: []int64{0}, need: 9e15, maxSweeps: sweepCap},
	{name: "rate at planSettle's cap", taps: []predTap{{rdm: rateCap, carry: 999}}, lvls: []int64{-1 << 40}, need: 1 << 44, maxSweeps: sweepCap},
	{
		name: "four waiters, mixed taps",
		taps: []predTap{
			{rdm: 1_187_500, carry: 250, w: 0}, {rdm: 333, carry: -17, w: 0}, {rdm: 0, carry: 12, w: 0},
			{rdm: 4_000, carry: 999, w: 1},
			{rdm: 77_777, carry: -999, w: 3}, {rdm: 1, w: 3},
		},
		lvls: []int64{-12_000, -3, 0, -1_000_000},
		pool: 1234, need: 11_875_000, maxSweeps: sweepCap,
	},
}

// TestCrossingSweepMatchesLoop requires the closed form to return the
// walk's sweep on every table case.
func TestCrossingSweepMatchesLoop(t *testing.T) {
	for _, c := range predictCases {
		want := predictFireLoop(c.taps, c.lvls, c.pool, c.need, c.maxSweeps)
		if got := crossingSweep(c.taps, c.lvls, c.pool, c.need, c.maxSweeps); got != want {
			t.Errorf("%s: closed form %d, per-sweep walk %d", c.name, got, want)
		}
	}
}

// word reads the next eight fuzz bytes as a little-endian word.
func (c *cursor) word() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v |= uint64(c.next()) << (8 * k)
	}
	return v
}

// below returns a value under 2^b for a b drawn from [0, maxBits], so
// small and large magnitudes are equally likely.
func (c *cursor) below(maxBits uint64) int64 {
	v := c.word()
	mask := uint64(1)<<(v%(maxBits+1)) - 1
	return int64(v >> 8 & mask)
}

// decodePredict maps fuzz bytes onto 0–4 waiters with 0–3 constant taps
// each. Per-sweep numerators are 0, below 2⁴⁰ or within 2¹⁶ of
// planSettle's cap; carries lie in (−1000, 1000); levels are 0 or debts
// down to −2⁴⁰ µJ; the need is below 2⁴⁴ µJ and the pool mostly short of
// it; the horizon is 2, 3, sweepCap or anything between. Every energy
// stays below 2⁴⁵ µJ, far under the 9·10¹⁵ µJ a saturated credit stands
// for, so saturation never decides a case and the walk cannot overflow.
func decodePredict(data []byte) predictCase {
	cur := &cursor{data: data}
	var c predictCase
	nw := int(cur.word() % 5)
	for w := 0; w < nw; w++ {
		lvl := int64(0)
		if cur.word()%3 != 0 {
			lvl = -cur.below(40)
		}
		c.lvls = append(c.lvls, lvl)
		nt := int(cur.word() % 4)
		for i := 0; i < nt; i++ {
			var rdm int64
			switch cur.word() % 4 {
			case 1, 2:
				rdm = cur.below(40)
			case 3:
				rdm = rateCap - cur.below(16)
			}
			carry := int64(cur.word()%1999) - 999
			c.taps = append(c.taps, predTap{rdm: rdm, carry: carry, w: w})
		}
	}
	c.need = 1 + cur.below(44)
	if cur.word()%4 == 0 {
		c.pool = c.need + cur.below(40)
	} else {
		c.pool = cur.below(44) % c.need
	}
	switch v := cur.word(); v % 4 {
	case 0:
		c.maxSweeps = 2
	case 1:
		c.maxSweeps = 3
	case 2:
		c.maxSweeps = sweepCap
	default:
		c.maxSweeps = 2 + int64(v>>2%(sweepCap-1))
	}
	return c
}

// FuzzPredictFire requires the closed form and the per-sweep walk to
// agree on the crossing sweep for every decoded case. The promoted
// corpus (testdata/fuzz/FuzzPredictFire) holds cases that cross inside
// the horizon, under debt and negative carries.
func FuzzPredictFire(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodePredict(data)
		want := predictFireLoop(c.taps, c.lvls, c.pool, c.need, c.maxSweeps)
		if got := crossingSweep(c.taps, c.lvls, c.pool, c.need, c.maxSweeps); got != want {
			t.Fatalf("%+v: closed form %d, per-sweep walk %d", c, got, want)
		}
	})
}

// BenchmarkSteadyNetdPredict times one pool-crossing prediction on a
// blocked pair of pollers fed by three constant taps totalling
// 11.875 mW: the 11.875 J threshold is 10,000 sweeps out.
func BenchmarkSteadyNetdPredict(b *testing.B) {
	r := newRigMode(b, kernel.Config{Seed: 7, DecayHalfLife: -1}, radio.Config{}, Config{Cooperative: true})
	req := Request{ReqBytes: 100, RespBytes: 2000}
	res, _, _ := r.addPollerWithTap(b, "mail", units.Milliwatts(4), 600*units.Second, units.Second, req)
	r.addPollerWithTap(b, "rss", units.Milliwatts(4), 600*units.Second, units.Second, req)
	tap, err := r.k.CreateTap(r.k.Root, "extra-tap", r.k.KernelPriv(), r.k.Battery(), res, label.Public())
	if err != nil {
		b.Fatal(err)
	}
	if err := tap.SetRate(r.k.KernelPriv(), units.Milliwatts(3.875)); err != nil {
		b.Fatal(err)
	}
	r.k.Run(2 * units.Second)
	if w := len(r.netd.waiters); w != 2 {
		b.Fatalf("waiting = %d, want 2", w)
	}
	now := r.k.Now()
	if got := (r.netd.predictFire(now) - now) / SweepPeriod; got < 9_900 || got > 10_100 {
		b.Fatalf("crossing %d sweeps out, want about 10,000", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictSink = r.netd.predictFire(now)
	}
}

// predictSink keeps the benchmarked call from being optimized away.
var predictSink units.Time
