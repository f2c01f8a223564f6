package fleet

import (
	"strings"
	"testing"

	"repro/internal/sketch"
	"repro/internal/units"
)

func shardBase(devices int) Config {
	return Config{
		Devices:  devices,
		Seed:     21,
		Duration: 24 * units.Hour,
		Workers:  2,
		Scenario: DayInTheLife(),
	}
}

// TestShardRangesPartition: the shard ranges must tile [0, N) exactly
// for awkward divisor combinations.
func TestShardRangesPartition(t *testing.T) {
	for _, devices := range []int{1, 7, 100, 101} {
		for _, n := range []int{1, 2, 3, 7} {
			if n > devices {
				continue
			}
			covered := 0
			for i := 0; i < n; i++ {
				lo, hi := planRange(devices, i, n)
				if lo != covered {
					t.Fatalf("devices=%d n=%d shard %d starts at %d, want %d", devices, n, i, lo, covered)
				}
				covered = hi
			}
			if covered != devices {
				t.Fatalf("devices=%d n=%d covered %d", devices, n, covered)
			}
		}
	}
}

// TestMergeValidation: gaps, duplicates, shards outside the plan and
// identity drift must be loud errors naming the shard or the field.
func TestMergeValidation(t *testing.T) {
	cfg := shardBase(30)
	plan, err := NewJob(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int) *Partial {
		scfg, err := plan.ShardConfig(i)
		if err != nil {
			t.Fatal(err)
		}
		scfg.Workers = cfg.Workers
		p, err := RunShard(scfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p0, p1, p2 := mk(0), mk(1), mk(2)

	if _, err := Merge([]*Partial{p0, p2}); err == nil ||
		!strings.Contains(err.Error(), "no partial for shard 1") {
		t.Fatalf("gap: want the missing shard named, got %v", err)
	}
	if _, err := Merge([]*Partial{p0, p1, p1, p2}); err == nil ||
		!strings.Contains(err.Error(), "two partials for shard 1") {
		t.Fatalf("duplicate: want the doubled shard named, got %v", err)
	}
	outside := *p2
	outside.ShardIndex = 3
	if _, err := Merge([]*Partial{p0, p1, &outside}); err == nil ||
		!strings.Contains(err.Error(), "shard 3 is outside the 3-shard plan") {
		t.Fatalf("shard outside the plan: got %v", err)
	}
	drift := *p1
	drift.Seed = 999
	if _, err := Merge([]*Partial{p0, &drift, p2}); err == nil ||
		!strings.Contains(err.Error(), "seed is 999, want 21") {
		t.Fatalf("seed drift: want the field named, got %v", err)
	}
	other := cfg
	other.Scenario = IdleScenario{}
	job, err := NewJob(other, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Merge([]*Partial{p0, p1, p2}); err == nil ||
		!strings.Contains(err.Error(), `scenario is `+cfg.Scenario.Name()+`, want idle`) {
		t.Fatalf("wrong scenario merged silently: %v", err)
	}
	if _, err := Merge(nil); err == nil {
		t.Fatal("empty merge succeeded")
	}
}

// TestParsePartialRejectsInconsistent: a partial arriving from outside
// the process (a -merge file, a runner's Complete, journal replay) that
// contradicts itself is refused by ParsePartial with an error naming the
// shard and bucket — and Merge refuses it too — instead of panicking in
// finish on a zero device count or growing a sketch to a bogus slot.
func TestParsePartialRejectsInconsistent(t *testing.T) {
	base := func() *Partial {
		return &Partial{
			Format: "cinder-fleet-partial", Version: PartialVersion,
			Identity: Identity{Scenario: "idle", Devices: 4, Seed: 1, Duration: units.Hour,
				LifeResolution: DefaultLifeResolution},
			ShardIndex: 0, ShardCount: 1, RangeLo: 0, RangeHi: 4,
			Agg: partialAgg{Seen: 4},
			Buckets: []partialBucket{
				{Name: "browse", Devices: 3, Dead: 2, Lives: [][2]int64{{100, 1}, {4000, 1}}},
				{Name: "idle", Devices: 1},
			},
		}
	}
	if _, err := Merge([]*Partial{base()}); err != nil {
		t.Fatalf("consistent base partial refused: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(p *Partial)
		want   string
	}{
		{"zero-device bucket", func(p *Partial) { p.Buckets[0].Devices, p.Buckets[1].Devices = 4, 0 },
			`bucket "idle" has 0 devices`},
		{"negative-device bucket", func(p *Partial) { p.Buckets[0].Devices = -1 },
			`bucket "browse" has -1 devices`},
		{"buckets not summing to seen", func(p *Partial) { p.Buckets[1].Devices = 2 },
			"buckets hold 5 devices, shard saw 4"},
		{"duplicate bucket", func(p *Partial) { p.Buckets[1].Name = "browse" },
			`bucket "browse" appears twice`},
		{"dead above devices", func(p *Partial) { p.Buckets[1].Dead = 2 },
			`bucket "idle" has 2 dead of 1 devices`},
		{"negative dead", func(p *Partial) { p.Buckets[1].Dead = -1 },
			`bucket "idle" has -1 dead of 1 devices`},
		{"life slot past the sketch", func(p *Partial) { p.Buckets[0].Lives[1][0] = sketch.MaxIndex + 1 },
			`bucket "browse" has life sketch pair`},
		{"negative life slot", func(p *Partial) { p.Buckets[0].Lives[0][0] = -1 },
			`bucket "browse" has life sketch pair`},
		{"zero life count", func(p *Partial) { p.Buckets[0].Lives[0][1] = 0 },
			`bucket "browse" has life sketch pair`},
		{"life count above dead", func(p *Partial) { p.Buckets[0].Lives[0][1] = 3 },
			`bucket "browse" has life sketch pair`},
		{"lives not summing to dead", func(p *Partial) { p.Buckets[0].Dead = 3 },
			`bucket "browse" has 2 deaths in its life sketch but 3 dead`},
		{"seen disagreeing with range", func(p *Partial) { p.Agg.Seen = 3 },
			"saw 3 devices for range [0,4)"},
		{"empty fleet", func(p *Partial) { p.Devices, p.RangeHi, p.Agg.Seen, p.Buckets = 0, 0, 0, nil },
			"device range [0,0) is empty"},
		{"negative battery", func(p *Partial) { p.BatteryCapacity = -1 },
			"negative battery capacity (battery_uj) -1"},
		{"zero life resolution", func(p *Partial) { p.LifeResolution = 0 },
			"non-positive life resolution"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.mutate(p)
			b, err := p.JSON()
			if err != nil {
				t.Fatal(err)
			}
			_, err = ParsePartial(b)
			if err == nil || !strings.Contains(err.Error(), "partial 0/1") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ParsePartial: got %v, want an error naming partial 0/1 and %q", err, tc.want)
			}
			if _, err := Merge([]*Partial{p}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Merge: got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
