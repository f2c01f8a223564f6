package fleet

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/units"
)

// This file is the job layer of the fleet: the immutable, wire-
// serializable spec of a run (Job), the one maker of shard configs
// (Job.ShardConfig) and the one merge check (Job.Merge). The layering
// follows rdsys's core/delivery split — the Job and the mergeable
// Partial are the in-memory model, and any process that can run a
// shard's config through RunShard and hand back its Partial is a valid
// runner, whether it lives on the other side of an HTTP connection or
// inside this very process. A single-process fleet.Run is the
// degenerate one-runner case: the shard body over the whole device
// range, packed into the Partial of shard 0 of 1 and reduced through
// the same Merge a cluster run uses.

// Identity names a fleet run: the fields (Config's, under the
// partial's JSON names) that the job, every shard's partial, every
// epoch header, the coordinator and the merge must agree on exactly.
// It is declared once and carried unchanged. Config.identity
// normalizes defaults, so two identities name one run exactly when ==.
type Identity struct {
	Scenario        string       `json:"scenario"` // registry name
	Devices         int          `json:"devices"`
	Seed            int64        `json:"seed"`
	Duration        units.Time   `json:"duration_ms"`
	BatteryCapacity units.Energy `json:"battery_uj"`         // 0 = profile battery
	LifeResolution  units.Time   `json:"life_resolution_ms"` // never 0 once normalized
}

// identity returns cfg's run identity, a zero life resolution
// normalized to DefaultLifeResolution.
func (cfg Config) identity() Identity {
	id := Identity{
		Devices:         cfg.Devices,
		Seed:            cfg.Seed,
		Duration:        cfg.Duration,
		BatteryCapacity: cfg.BatteryCapacity,
		LifeResolution:  cfg.LifeResolution,
	}
	if cfg.Scenario != nil {
		id.Scenario = cfg.Scenario.Name()
	}
	if id.LifeResolution == 0 {
		id.LifeResolution = DefaultLifeResolution
	}
	return id
}

// config is identity's inverse: the run config of id over workload sc.
func (id Identity) config(sc Scenario) Config {
	return Config{
		Devices:         id.Devices,
		Seed:            id.Seed,
		Duration:        id.Duration,
		Scenario:        sc,
		BatteryCapacity: id.BatteryCapacity,
		LifeResolution:  id.LifeResolution,
	}
}

// check refuses an empty fleet, a non-positive horizon or life
// resolution, and a negative battery capacity.
func (id Identity) check() error {
	switch {
	case id.Devices <= 0:
		return fmt.Errorf("fleet: need at least 1 device, got %d", id.Devices)
	case id.Duration <= 0:
		return fmt.Errorf("fleet: non-positive duration %v", id.Duration)
	case id.LifeResolution <= 0:
		return fmt.Errorf("fleet: non-positive life resolution %v", id.LifeResolution)
	case id.BatteryCapacity < 0:
		return fmt.Errorf("fleet: negative battery capacity (battery_uj) %d", int64(id.BatteryCapacity))
	}
	return nil
}

// drift names the first field, by its JSON name, on which got differs
// from id, with both values (empty when there is none).
func (id Identity) drift(got Identity) string {
	want, have := reflect.ValueOf(id), reflect.ValueOf(got)
	for i := 0; i < want.NumField(); i++ {
		if want.Field(i).Interface() != have.Field(i).Interface() {
			name := want.Type().Field(i).Tag.Get("json")
			return fmt.Sprintf("%s is %v, want %v", name, have.Field(i), want.Field(i))
		}
	}
	return ""
}

// Job is the immutable spec of a fleet run: its identity and the shard
// plan. It is what a coordinator accepts, what crosses the delivery
// wire, and what every shard of a run must agree on (CheckPartial). The
// scenario travels by registry name (Scenarios()); tests that need a
// non-registry scenario attach one with NewJob, but such jobs cannot
// cross a process boundary.
type Job struct {
	Identity
	// Shards is the shard plan: the device index range is partitioned
	// into this many contiguous shards (1 = the degenerate single-runner
	// job).
	Shards int `json:"shards"`

	// CheckpointDir, when set, makes every shard interruptible: epoch
	// files land there (per-shard names), and a reassigned shard resumes
	// from the newest complete epoch instead of t = 0 — runner loss
	// costs at most one checkpoint interval of re-simulation. Runners
	// must share the directory (same machine or shared filesystem).
	CheckpointDir     string `json:"checkpoint_dir,omitempty"`
	CheckpointEveryMS int64  `json:"checkpoint_every_ms,omitempty"`

	// scenario is an in-process override for non-registry scenarios
	// (NewJob captures it). It does not cross the wire: a marshalled
	// job resolves by name only.
	scenario Scenario
}

// NewJob derives a job spec from a run config and a shard plan,
// capturing cfg.Scenario so non-registry scenarios work in-process.
// Jobs always run production devices: the reference configuration is
// refused.
func NewJob(cfg Config, shards int) (Job, error) {
	if cfg.Scenario == nil {
		return Job{}, fmt.Errorf("fleet: job needs a scenario")
	}
	if cfg.Reference {
		return Job{}, errReferenceSharded
	}
	j := Job{
		Identity:          cfg.identity(),
		Shards:            shards,
		CheckpointDir:     cfg.CheckpointDir,
		CheckpointEveryMS: int64(cfg.CheckpointEvery),
		scenario:          cfg.Scenario,
	}
	return j, j.Validate()
}

// BindFlags declares the run flags cinder-fleet and cinder-coord
// submit share on fs. The returned function builds their Config once fs
// is parsed, refusing an unknown scenario with the registry's names.
func BindFlags(fs *flag.FlagSet) func() (Config, error) {
	var (
		devices   = fs.Int("devices", 1000, "fleet size")
		seed      = fs.Int64("seed", 1, "fleet master seed")
		duration  = fs.Duration("duration", 20*time.Minute, "simulated time per device")
		scenario  = fs.String("scenario", "poller", "workload: "+scenarioNames())
		batteryJ  = fs.Float64("battery-j", 0, "override battery capacity in joules (0 = profile default)")
		ckptDir   = fs.String("checkpoint-dir", "", "write resumable epoch files to this directory (shared by a job's runners, so a lost runner's shard resumes)")
		ckptEvery = fs.Duration("checkpoint-every", 24*time.Hour, "simulated interval between checkpoint boundaries; each device is saved at its first savable instant at or after one")
	)
	return func() (Config, error) {
		sc, ok := Scenarios()[*scenario]
		if !ok {
			return Config{}, fmt.Errorf("unknown scenario %q (have %s)", *scenario, scenarioNames())
		}
		cfg := Config{
			Devices:         *devices,
			Seed:            *seed,
			Duration:        units.Time(duration.Milliseconds()),
			Scenario:        sc,
			CheckpointDir:   *ckptDir,
			CheckpointEvery: units.Time(ckptEvery.Milliseconds()),
		}
		if *batteryJ != 0 {
			// Refuses negatives, NaN, ±Inf, values beyond int64 µJ and
			// values that round to 0 µJ (which would mean the profile).
			if uj := *batteryJ * 1e6; !(uj >= 0.5 && uj < math.MaxInt64) {
				return Config{}, fmt.Errorf("-battery-j %v is not a capacity from 1 µJ to %.0f J (0 keeps the profile battery)",
					*batteryJ, math.MaxInt64/1e6)
			}
			cfg.BatteryCapacity = units.Joules(*batteryJ)
		}
		if *ckptEvery < 0 {
			return Config{}, fmt.Errorf("-checkpoint-every %v is negative", *ckptEvery)
		}
		return cfg, nil
	}
}

// scenarioNames lists the registry's names, sorted.
func scenarioNames() string {
	scenarios := Scenarios()
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// ParseJob deserializes and validates a wire job.
func ParseJob(b []byte) (Job, error) {
	var j Job
	if err := json.Unmarshal(b, &j); err != nil {
		return Job{}, fmt.Errorf("fleet: bad job: %w", err)
	}
	return j, j.Validate()
}

// Validate checks the spec: a resolvable scenario, a valid identity,
// and a shard plan that partitions the fleet.
func (j Job) Validate() error {
	if _, err := j.ResolveScenario(); err != nil {
		return err
	}
	if err := j.check(); err != nil {
		return err
	}
	if j.Shards <= 0 || j.Shards > j.Devices {
		return fmt.Errorf("fleet: job shard plan %d over %d devices", j.Shards, j.Devices)
	}
	if j.CheckpointEveryMS < 0 {
		return fmt.Errorf("fleet: negative checkpoint interval (checkpoint_every_ms) %d", j.CheckpointEveryMS)
	}
	return nil
}

// ResolveScenario returns the job's workload: the in-process override
// when NewJob captured one, the registry entry otherwise.
func (j Job) ResolveScenario() (Scenario, error) {
	if j.scenario != nil {
		return j.scenario, nil
	}
	sc, ok := Scenarios()[j.Scenario]
	if !ok {
		return nil, fmt.Errorf("fleet: job references unknown scenario %q", j.Scenario)
	}
	return sc, nil
}

// String describes the job in one line for logs.
func (j Job) String() string {
	return fmt.Sprintf("%s, %d devices × %v, %d shards",
		j.Scenario, j.Devices, time.Duration(j.Duration)*time.Millisecond, j.Shards)
}

// SimTotal is the job's total simulated device-time — the work measure
// behind device-days/s and ETA reporting.
func (j Job) SimTotal() units.Time { return units.Time(j.Devices) * j.Duration }

// ShardRange returns shard i's contiguous device index range.
func (j Job) ShardRange(i int) (lo, hi int) {
	return planRange(j.Devices, i, j.Shards)
}

// ShardConfig validates the job and materializes the run config for
// one shard of its plan — the only way to make a shard's config. The
// caller adds the local knobs (Workers, Resume or ResumeAuto, Progress,
// PerDevice, Warnf) and runs it with RunShard.
func (j Job) ShardConfig(shard int) (Config, error) {
	if err := j.Validate(); err != nil {
		return Config{}, err
	}
	if shard < 0 || shard >= j.Shards {
		return Config{}, fmt.Errorf("fleet: shard %d of %d out of range", shard, j.Shards)
	}
	sc, _ := j.ResolveScenario() // Validate resolved it
	cfg := j.config(sc)
	cfg.shardIndex, cfg.shardCount = shard, j.Shards
	cfg.CheckpointDir = j.CheckpointDir
	cfg.CheckpointEvery = units.Time(j.CheckpointEveryMS)
	return cfg, nil
}

// CheckPartial accepts p only as shard's output under this job: its
// identity, shard plan and device range. A partial from another run is
// refused naming the field that drifted. The coordinator's Complete,
// its journal replay and Job.Merge all check partials with it.
func (j Job) CheckPartial(shard int, p *Partial) error {
	if p == nil {
		return fmt.Errorf("fleet: no partial for shard %d", shard)
	}
	if p.Identity != j.Identity {
		return fmt.Errorf("fleet: partial for shard %d is from another run: %s", shard, j.drift(p.Identity))
	}
	lo, hi := j.ShardRange(shard)
	if p.ShardIndex != shard || p.ShardCount != j.Shards || p.RangeLo != lo || p.RangeHi != hi {
		return fmt.Errorf("fleet: partial %d/%d over [%d,%d) does not describe shard %d/%d over [%d,%d)",
			p.ShardIndex, p.ShardCount, p.RangeLo, p.RangeHi, shard, j.Shards, lo, hi)
	}
	return nil
}

// Merge combines the job's shard partials, in any order, into the full
// fleet report. Each partial is placed by its ShardIndex: an index
// outside the plan, a second partial for one shard and a shard with no
// partial are refused by number. Every partial then passes CheckPartial
// and its own consistency check once, and they fold in shard order —
// the plan's ranges tile the fleet, so the merged report is the
// single-process report byte for byte.
func (j Job) Merge(parts []*Partial) (Report, error) {
	if j.Shards <= 0 {
		return Report{}, fmt.Errorf("fleet: merge under a %d-shard plan", j.Shards)
	}
	placed := make([]*Partial, j.Shards)
	for _, p := range parts {
		switch i := p.ShardIndex; {
		case i < 0 || i >= j.Shards:
			return Report{}, fmt.Errorf("fleet: partial for shard %d is outside the %d-shard plan", i, j.Shards)
		case placed[i] != nil:
			return Report{}, fmt.Errorf("fleet: two partials for shard %d", i)
		default:
			placed[i] = p
		}
	}
	agg := newAggregate()
	for i, p := range placed {
		if err := j.CheckPartial(i, p); err != nil {
			return Report{}, err
		}
		if err := p.check(); err != nil {
			return Report{}, err
		}
		agg.merge(p.unpack())
	}
	return agg.finish(j.Identity), nil
}
