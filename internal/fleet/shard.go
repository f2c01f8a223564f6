package fleet

import (
	"encoding/json"
	"fmt"

	"repro/internal/sketch"
	"repro/internal/units"
)

// This file implements sharded fleet runs: a Job's shard plan
// partitions the device index range deterministically into n contiguous
// slices (Job.ShardConfig), RunShard simulates one slice independently
// (its own process, machine, or checkpoint directory) into a *partial*
// report — the raw mergeable aggregate: integer sums, counts, and the
// sparse form of the life-percentile quantile sketch — and Job.Merge
// combines the partials into the same canonical JSON a single-process
// run of the whole fleet emits, byte for byte, because every aggregate
// field is associative: sums and counts add, min/max compose, and the
// sketch merges by counter addition. No full-population array ever
// exists on any machine.

// PartialVersion is the partial-report schema version. Version 2
// dropped the engine and settle modes: partials always come from
// production runs. Version 3 dropped the fleet-wide counter copies from
// Agg: the bucket sums carry every total. Version 4 writes each bucket's
// sums as its Counters, in their declaration order.
const PartialVersion = 4

// Partial is one shard's mergeable report.
type Partial struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	// Identity names the run; every shard of it must carry the same.
	Identity

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

// partialBucket is the wire form of one scenario bucket's aggregate:
// the bucket's Counters sum travels as-is under its own JSON tags.
type partialBucket struct {
	Name    string `json:"name"`
	Devices int    `json:"devices"`
	Counters
	Dead  int        `json:"dead"`
	Lives [][2]int64 `json:"lives,omitempty"`
}

// RunShard simulates one shard of a job, its config made by
// Job.ShardConfig, and returns its mergeable partial report. Checkpoint
// options apply per shard: each shard keeps its own epoch files in the
// shared checkpoint directory.
func RunShard(cfg Config) (*Partial, error) {
	workers, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	if cfg.shardCount == 0 {
		return nil, fmt.Errorf("fleet: RunShard runs a job's shard: make its config with Job.ShardConfig")
	}
	return runShard(cfg, workers)
}

// runShard simulates the config's device range into a partial — the
// code path Run, RunShard, every -shard process and every coordinator
// runner share.
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
		Format:     "cinder-fleet-partial",
		Version:    PartialVersion,
		Identity:   cfg.identity(),
		ShardIndex: cfg.shardIndex,
		ShardCount: max(cfg.shardCount, 1), // an unsharded run is shard 0 of 1
		RangeLo:    lo,
		RangeHi:    hi,
		Agg: partialAgg{
			Seen:          a.seen,
			MinConsumedUJ: int64(a.minConsumed),
			MaxConsumedUJ: int64(a.maxConsumed),
		},
	}
	for _, n := range a.names() {
		b := a.byName[n]
		p.Buckets = append(p.Buckets, partialBucket{
			Name:     n,
			Devices:  b.devices,
			Counters: b.sum,
			Dead:     b.dead,
			Lives:    sparseLives(&b.lives),
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

// ParsePartial deserializes and checks a partial report. Partials
// arrive from outside the process — -merge files, a runner's Complete,
// coordinator journal replay — so an internally inconsistent one is
// refused here, naming the shard and bucket, before Merge could divide
// by a zero device count or grow a life sketch to an absurd slot.
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
	if err := p.check(); err != nil {
		return nil, err
	}
	return &p, nil
}

// check verifies a partial against itself: a non-empty device range
// inside the fleet, seen exactly once; a valid run identity; uniquely
// named buckets with positive device counts summing to it; deaths
// within each bucket; and life sketches whose slots exist and whose
// counts sum to the deaths.
func (p *Partial) check() error {
	shard := fmt.Sprintf("fleet: partial %d/%d", p.ShardIndex, p.ShardCount)
	if p.RangeLo < 0 || p.RangeLo >= p.RangeHi || p.RangeHi > p.Devices {
		return fmt.Errorf("%s: device range [%d,%d) is empty or outside the fleet's [0,%d)",
			shard, p.RangeLo, p.RangeHi, p.Devices)
	}
	if err := p.Identity.check(); err != nil {
		return fmt.Errorf("%s: %w", shard, err)
	}
	if p.Agg.Seen != p.RangeHi-p.RangeLo {
		return fmt.Errorf("%s saw %d devices for range [%d,%d)", shard, p.Agg.Seen, p.RangeLo, p.RangeHi)
	}
	devices := 0
	named := make(map[string]bool, len(p.Buckets))
	for _, b := range p.Buckets {
		bucket := fmt.Sprintf("%s bucket %q", shard, b.Name)
		switch {
		case named[b.Name]:
			return fmt.Errorf("%s appears twice", bucket)
		case b.Devices <= 0 || b.Devices > p.Agg.Seen:
			return fmt.Errorf("%s has %d devices (shard saw %d)", bucket, b.Devices, p.Agg.Seen)
		case b.Dead < 0 || b.Dead > b.Devices:
			return fmt.Errorf("%s has %d dead of %d devices", bucket, b.Dead, b.Devices)
		}
		named[b.Name] = true
		devices += b.Devices
		var lives int64
		for _, pair := range b.Lives {
			if pair[0] < 0 || pair[0] > sketch.MaxIndex || pair[1] <= 0 || pair[1] > int64(b.Dead) {
				return fmt.Errorf("%s has life sketch pair %v (slots 0..%d, counts 1..%d)",
					bucket, pair, sketch.MaxIndex, b.Dead)
			}
			lives += pair[1]
		}
		if lives != int64(b.Dead) {
			return fmt.Errorf("%s has %d deaths in its life sketch but %d dead", bucket, lives, b.Dead)
		}
	}
	if devices != p.Agg.Seen {
		return fmt.Errorf("%s: buckets hold %d devices, shard saw %d", shard, devices, p.Agg.Seen)
	}
	return nil
}

// unpack converts a partial's wire form back into an aggregate.
func (p *Partial) unpack() *aggregate {
	a := newAggregate()
	a.seen = p.Agg.Seen
	a.minConsumed = units.Energy(p.Agg.MinConsumedUJ)
	a.maxConsumed = units.Energy(p.Agg.MaxConsumedUJ)
	for _, pb := range p.Buckets {
		b := &bucketAgg{devices: pb.Devices, dead: pb.Dead, sum: pb.Counters}
		for _, pair := range pb.Lives {
			b.lives.AddBucket(int(pair[0]), uint64(pair[1]))
		}
		a.byName[pb.Name] = b
	}
	return a
}

// Merge combines a complete set of shard partials, in any order, into
// the full fleet Report. The job is read from the partials themselves —
// the first one's Identity and ShardCount — and Job.Merge checks every
// partial against it.
func Merge(parts []*Partial) (Report, error) {
	if len(parts) == 0 {
		return Report{}, fmt.Errorf("fleet: merge of zero partials")
	}
	return Job{Identity: parts[0].Identity, Shards: parts[0].ShardCount}.Merge(parts)
}
