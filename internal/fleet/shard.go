package fleet

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/sketch"
	"repro/internal/units"
)

// This file implements sharded fleet runs: `cinder-fleet -shard i/n`
// partitions the device index range deterministically into n contiguous
// slices, each shard simulates its slice independently (its own
// process, machine, or checkpoint directory) and emits a *partial*
// report — the raw mergeable aggregate: integer sums, counts, and the
// sparse form of the life-percentile quantile sketch. `-merge` combines
// the partials and produces the same canonical JSON a single-process
// run of the whole fleet emits, byte for byte, because every aggregate
// field is associative: sums and counts add, min/max compose, and the
// sketch merges by counter addition. No full-population array ever
// exists on any machine.

// PartialVersion is the partial-report schema version. Version 2
// dropped the engine and settle modes: partials always come from
// production runs. Version 3 dropped the fleet-wide counter copies from
// Agg: the bucket sums carry every total.
const PartialVersion = 3

// Partial is one shard's mergeable report.
type Partial struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	// Identity: every shard of a run must agree on these exactly.
	Scenario         string `json:"scenario"`
	Devices          int    `json:"devices"`
	Seed             int64  `json:"seed"`
	DurationMS       int64  `json:"duration_ms"`
	BatteryUJ        int64  `json:"battery_uj"`
	LifeResolutionMS int64  `json:"life_resolution_ms"`

	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	RangeLo    int `json:"range_lo"`
	RangeHi    int `json:"range_hi"`

	Agg     partialAgg      `json:"agg"`
	Buckets []partialBucket `json:"buckets"`
}

// partialAgg is the wire form of the shard's top-level aggregate: the
// device count and consumption extremes, the only fleet-wide figures
// that are not sums over the buckets.
type partialAgg struct {
	Seen          int   `json:"seen"`
	MinConsumedUJ int64 `json:"min_consumed_uj"`
	MaxConsumedUJ int64 `json:"max_consumed_uj"`
}

// partialBucket is the wire form of one scenario bucket's aggregate.
type partialBucket struct {
	Name            string     `json:"name"`
	Devices         int        `json:"devices"`
	TotalConsumedUJ int64      `json:"total_consumed_uj"`
	BusyTicks       int64      `json:"busy_ticks"`
	IdleTicks       int64      `json:"idle_ticks"`
	Polls           int64      `json:"polls"`
	Pages           int64      `json:"pages"`
	Activations     int64      `json:"radio_activations"`
	PowerUps        int64      `json:"netd_power_ups"`
	SMSSent         int64      `json:"sms_sent"`
	Calls           int64      `json:"calls_placed"`
	EngineSteps     uint64     `json:"engine_steps"`
	FlowWalks       int64      `json:"flow_walks"`
	SettledBatches  int64      `json:"settled_batches"`
	SettledSweeps   int64      `json:"settled_sweeps"`
	SettledCharges  int64      `json:"settled_charges,omitempty"`
	RechargedUJ     int64      `json:"recharged_uj,omitempty"`
	ReclaimedUJ     int64      `json:"reclaimed_uj,omitempty"`
	Dead            int        `json:"dead"`
	Lives           [][2]int64 `json:"lives,omitempty"`
}

// RunShard simulates one shard of the fleet (cfg.ShardIndex of
// cfg.ShardCount) and returns its mergeable partial report. Checkpoint
// options apply per shard: each shard keeps its own epoch files in the
// shared checkpoint directory.
func RunShard(cfg Config) (*Partial, error) {
	workers, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	if cfg.ShardCount <= 0 {
		return nil, fmt.Errorf("fleet: RunShard needs ShardCount > 0")
	}
	return runShard(cfg, workers)
}

// runShard simulates the config's device range into a partial — the
// code path Run, RunShard, and every coordinator-dispatched ShardRun
// share.
func runShard(cfg Config, workers int) (*Partial, error) {
	agg := newAggregate()
	if err := runEpochs(cfg, workers, agg); err != nil {
		return nil, err
	}
	return packPartial(cfg, agg), nil
}

// packPartial converts an aggregate into its wire form.
func packPartial(cfg Config, a *aggregate) *Partial {
	lo, hi := cfg.shardRange()
	p := &Partial{
		Format:           "cinder-fleet-partial",
		Version:          PartialVersion,
		Scenario:         cfg.Scenario.Name(),
		Devices:          cfg.Devices,
		Seed:             cfg.Seed,
		DurationMS:       int64(cfg.Duration),
		BatteryUJ:        int64(cfg.BatteryCapacity),
		LifeResolutionMS: int64(cfg.LifeResolution),
		ShardIndex:       cfg.ShardIndex,
		ShardCount:       cfg.ShardCount,
		RangeLo:          lo,
		RangeHi:          hi,
		Agg: partialAgg{
			Seen:          a.seen,
			MinConsumedUJ: int64(a.minConsumed),
			MaxConsumedUJ: int64(a.maxConsumed),
		},
	}
	for _, n := range a.names() {
		b := a.byName[n]
		p.Buckets = append(p.Buckets, partialBucket{
			Name:            n,
			Devices:         b.devices,
			TotalConsumedUJ: int64(b.consumed),
			BusyTicks:       b.busyTicks,
			IdleTicks:       b.idleTicks,
			Polls:           b.polls,
			Pages:           b.pages,
			Activations:     b.activations,
			PowerUps:        b.powerUps,
			SMSSent:         b.sms,
			Calls:           b.calls,
			EngineSteps:     b.steps,
			FlowWalks:       b.flowWalks,
			SettledBatches:  b.settled,
			SettledSweeps:   b.settledSweeps,
			SettledCharges:  b.settledCharges,
			RechargedUJ:     int64(b.recharged),
			ReclaimedUJ:     int64(b.reclaimed),
			Dead:            b.dead,
			Lives:           sparseLives(&b.lives),
		})
	}
	return p
}

// sparseLives serializes a sketch as (bucket index, count) pairs.
func sparseLives(h *sketch.Hist) [][2]int64 {
	var out [][2]int64
	h.Each(func(idx int, count uint64) {
		out = append(out, [2]int64{int64(idx), int64(count)})
	})
	return out
}

// JSON renders the partial as indented JSON.
func (p *Partial) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// ParsePartial deserializes and sanity-checks a partial report.
func ParsePartial(b []byte) (*Partial, error) {
	var p Partial
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("fleet: bad partial report: %w", err)
	}
	if p.Format != "cinder-fleet-partial" {
		return nil, fmt.Errorf("fleet: not a partial report (format %q)", p.Format)
	}
	if p.Version != PartialVersion {
		return nil, fmt.Errorf("fleet: partial report v%d, this build reads v%d", p.Version, PartialVersion)
	}
	return &p, nil
}

// unpack converts a partial's wire form back into an aggregate.
func (p *Partial) unpack() *aggregate {
	a := newAggregate()
	a.seen = p.Agg.Seen
	a.minConsumed = units.Energy(p.Agg.MinConsumedUJ)
	a.maxConsumed = units.Energy(p.Agg.MaxConsumedUJ)
	for _, pb := range p.Buckets {
		b := &bucketAgg{
			devices:        pb.Devices,
			consumed:       units.Energy(pb.TotalConsumedUJ),
			busyTicks:      pb.BusyTicks,
			idleTicks:      pb.IdleTicks,
			polls:          pb.Polls,
			pages:          pb.Pages,
			activations:    pb.Activations,
			powerUps:       pb.PowerUps,
			sms:            pb.SMSSent,
			calls:          pb.Calls,
			steps:          pb.EngineSteps,
			flowWalks:      pb.FlowWalks,
			settled:        pb.SettledBatches,
			settledSweeps:  pb.SettledSweeps,
			settledCharges: pb.SettledCharges,
			recharged:      units.Energy(pb.RechargedUJ),
			reclaimed:      units.Energy(pb.ReclaimedUJ),
			dead:           pb.Dead,
		}
		for _, pair := range pb.Lives {
			b.lives.AddBucket(int(pair[0]), uint64(pair[1]))
		}
		a.byName[pb.Name] = b
	}
	return a
}

// Merge combines every shard's partial report into the full fleet
// Report. The partials must form an exact partition of the device range
// and agree on the run identity; any gap, overlap or mismatch is a loud
// error. The merged report's canonical JSON is byte-identical to a
// single-process run of the same config, which the shard invariance
// suite asserts.
func Merge(parts []*Partial, scenario Scenario) (Report, error) {
	if len(parts) == 0 {
		return Report{}, fmt.Errorf("fleet: merge of zero partials")
	}
	ref := parts[0]
	if scenario == nil || scenario.Name() != ref.Scenario {
		name := "<nil>"
		if scenario != nil {
			name = scenario.Name()
		}
		return Report{}, fmt.Errorf("fleet: merge scenario %q does not match partials' %q", name, ref.Scenario)
	}
	sorted := make([]*Partial, len(parts))
	copy(sorted, parts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].RangeLo < sorted[j].RangeLo })

	agg := newAggregate()
	covered := 0
	for _, p := range sorted {
		switch {
		case p.Scenario != ref.Scenario || p.Devices != ref.Devices || p.Seed != ref.Seed ||
			p.DurationMS != ref.DurationMS || p.BatteryUJ != ref.BatteryUJ ||
			p.LifeResolutionMS != ref.LifeResolutionMS || p.ShardCount != ref.ShardCount:
			return Report{}, fmt.Errorf("fleet: partial %d/%d does not match partial %d/%d: "+
				"shards must come from one identically configured run",
				p.ShardIndex, p.ShardCount, ref.ShardIndex, ref.ShardCount)
		case p.RangeLo != covered:
			return Report{}, fmt.Errorf("fleet: shard coverage gap or overlap at device %d (next shard starts at %d)",
				covered, p.RangeLo)
		case p.Agg.Seen != p.RangeHi-p.RangeLo:
			return Report{}, fmt.Errorf("fleet: shard %d/%d saw %d devices for range [%d,%d)",
				p.ShardIndex, p.ShardCount, p.Agg.Seen, p.RangeLo, p.RangeHi)
		}
		covered = p.RangeHi
		agg.merge(p.unpack())
	}
	if covered != ref.Devices {
		return Report{}, fmt.Errorf("fleet: shards cover %d of %d devices", covered, ref.Devices)
	}

	cfg := Config{
		Devices:         ref.Devices,
		Seed:            ref.Seed,
		Duration:        units.Time(ref.DurationMS),
		Scenario:        scenario,
		BatteryCapacity: units.Energy(ref.BatteryUJ),
	}
	return agg.finish(cfg, 0), nil
}
