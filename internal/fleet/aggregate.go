package fleet

import (
	"sort"

	"repro/internal/sketch"
	"repro/internal/units"
)

// aggregate is the mergeable core of a Report: integer sums, counts and
// quantile sketches only — no retained per-device arrays (Results is
// kept solely under KeepResults), and no floats until finish. Every
// device lands in exactly one scenario bucket, so the buckets carry
// every counter and finish derives the fleet-wide totals from them;
// only the consumption extremes, which do not sum, live at the top.
// Merging two aggregates is element-wise addition, so shard partials
// combine into exactly the aggregate a single process builds.
type aggregate struct {
	seen        int
	minConsumed units.Energy
	maxConsumed units.Energy

	byName map[string]*bucketAgg
}

// bucketAgg is one scenario bucket's mergeable aggregate: its device
// and death counts, the life sketch of its dead, and the sum of its
// devices' Counters.
type bucketAgg struct {
	devices int
	dead    int
	lives   sketch.Hist
	sum     Counters
}

func newAggregate() *aggregate {
	return &aggregate{byName: make(map[string]*bucketAgg)}
}

// bucket returns the named bucket, creating it on first use.
func (a *aggregate) bucket(name string) *bucketAgg {
	b := a.byName[name]
	if b == nil {
		b = &bucketAgg{}
		a.byName[name] = b
	}
	return b
}

// extremes folds a consumption range of n devices into the top level.
func (a *aggregate) extremes(n int, lo, hi units.Energy) {
	if n == 0 {
		return
	}
	if a.seen == 0 || lo < a.minConsumed {
		a.minConsumed = lo
	}
	if hi > a.maxConsumed {
		a.maxConsumed = hi
	}
	a.seen += n
}

// add folds one device's result into the aggregate.
func (a *aggregate) add(r DeviceResult) {
	a.extremes(1, r.Consumed, r.Consumed)
	b := a.bucket(r.Scenario)
	b.devices++
	b.sum.add(&r.Counters)
	if r.Died {
		b.dead++
		b.lives.Add(int64(r.DiedAt))
	}
}

// merge folds another aggregate into this one. Every field is an
// integer sum, a min/max, or a sketch merge — all associative — so any
// shard grouping produces the identical aggregate.
func (a *aggregate) merge(o *aggregate) {
	a.extremes(o.seen, o.minConsumed, o.maxConsumed)
	for name, ob := range o.byName {
		a.bucket(name).merge(ob)
	}
}

// merge adds another bucket's counts, sketch and sums into this one.
func (b *bucketAgg) merge(o *bucketAgg) {
	b.devices += o.devices
	b.dead += o.dead
	b.lives.Merge(&o.lives)
	b.sum.add(&o.sum)
}

// utilizationPct converts tick sums to the busy percentage.
func utilizationPct(busy, idle int64) float64 {
	total := busy + idle
	if total == 0 {
		return 0
	}
	return 100 * float64(busy) / float64(total)
}

// finish computes the fleet-wide totals from the bucket sums, then
// means, percentiles and the sorted bucket list.
func (a *aggregate) finish(id Identity) Report {
	rep := Report{
		Scenario:    id.Scenario,
		Devices:     id.Devices,
		Seed:        id.Seed,
		Duration:    id.Duration,
		MinConsumed: a.minConsumed,
		MaxConsumed: a.maxConsumed,
	}
	var total Counters
	var lives sketch.Hist
	for _, n := range a.names() {
		b := a.byName[n]
		total.add(&b.sum)
		rep.Dead += b.dead
		lives.Merge(&b.lives)

		s := &b.sum
		bk := Bucket{
			Name:            n,
			Devices:         b.devices,
			TotalConsumed:   s.Consumed,
			MeanConsumed:    s.Consumed / units.Energy(b.devices),
			Recharged:       s.Recharged,
			Reclaimed:       s.Reclaimed,
			MeanUtilization: utilizationPct(s.BusyTicks, s.IdleTicks),
			Polls:           s.Polls,
			Pages:           s.Pages,
			Activations:     s.RadioActivations,
			PowerUps:        s.PowerUps,
			SMSSent:         s.SMSSent,
			Calls:           s.CallsPlaced,
			MeanDiagnostics: s.Diagnostics.mean(b.devices),
			Dead:            b.dead,
		}
		if b.dead > 0 {
			bk.LifeP50 = units.Time(b.lives.Quantile(50))
			bk.LifeP90 = units.Time(b.lives.Quantile(90))
		}
		rep.Buckets = append(rep.Buckets, bk)
	}
	rep.TotalConsumed = total.Consumed
	rep.MeanConsumed = total.Consumed / units.Energy(rep.Devices)
	rep.TotalRecharged = total.Recharged
	rep.TotalReclaimed = total.Reclaimed
	rep.MeanUtilization = utilizationPct(total.BusyTicks, total.IdleTicks)
	rep.TotalPolls = total.Polls
	rep.TotalActivations = total.RadioActivations
	rep.TotalPowerUps = total.PowerUps
	rep.TotalEngineSteps = total.EngineSteps
	rep.TotalFlowWalks = total.FlowWalks
	rep.TotalSettledBatches = total.SettledBatches
	rep.TotalSettledSweeps = total.SettledSweeps
	rep.TotalSettledCharges = total.SettledCharges
	if rep.Dead > 0 {
		rep.LifeP50 = units.Time(lives.Quantile(50))
		rep.LifeP90 = units.Time(lives.Quantile(90))
	}
	return rep
}

// names returns the bucket names in sorted order.
func (a *aggregate) names() []string {
	names := make([]string, 0, len(a.byName))
	for n := range a.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// mean divides every diagnostic by n devices (integer division).
func (d Diagnostics) mean(n int) MeanDiagnostics {
	return MeanDiagnostics{
		EngineSteps:    d.EngineSteps / uint64(n),
		FlowWalks:      d.FlowWalks / int64(n),
		SettledBatches: d.SettledBatches / int64(n),
		SettledSweeps:  d.SettledSweeps / int64(n),
		SettledCharges: d.SettledCharges / int64(n),
	}
}
