package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sketch"
	"repro/internal/units"
)

func testCfg(workers int) Config {
	return Config{
		Devices:     32,
		Seed:        7,
		Duration:    90 * units.Second,
		Workers:     workers,
		Scenario:    PollerScenario{},
		KeepResults: true,
	}
}

func TestFleetDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(testCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config produced different reports:\n%s\nvs\n%s", a.Format(), b.Format())
	}
}

func TestFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	var reports []Report
	for _, w := range []int{1, 2, 7} {
		r, err := Run(testCfg(w))
		if err != nil {
			t.Fatal(err)
		}
		r.Workers = 0 // normalize the only field allowed to differ
		reports = append(reports, r)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("worker count changed the report:\n%s\nvs\n%s",
				reports[0].Format(), reports[i].Format())
		}
	}
}

func TestFleetSeedChangesResults(t *testing.T) {
	a, err := Run(testCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg(2)
	cfg.Seed = 8
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Results, b.Results) {
		t.Fatal("different fleet seeds produced identical per-device results")
	}
}

func TestFleetPollerActivity(t *testing.T) {
	rep, err := Run(testCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalPolls == 0 {
		t.Error("no polls completed")
	}
	if rep.TotalActivations == 0 {
		t.Error("no radio activations")
	}
	if rep.TotalConsumed == 0 {
		t.Error("no energy consumed")
	}
	for _, r := range rep.Results {
		if r.Consumed <= 0 {
			t.Fatalf("device %d consumed nothing", r.Index)
		}
	}
}

func TestFleetBatteryDeath(t *testing.T) {
	cfg := Config{
		Devices:  8,
		Seed:     3,
		Duration: 5 * units.Minute,
		Workers:  4,
		Scenario: IdleScenario{},
		// 699 mW idle drains 30 J in ≈43 s: every device must die.
		BatteryCapacity: 30 * units.Joule,
		KeepResults:     true,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dead != cfg.Devices {
		t.Fatalf("Dead = %d, want %d\n%s", rep.Dead, cfg.Devices, rep.Format())
	}
	for _, r := range rep.Results {
		if !r.Died {
			t.Fatalf("device %d not marked dead", r.Index)
		}
		if r.DiedAt <= 30*units.Second || r.DiedAt >= 60*units.Second {
			t.Fatalf("device %d died at %v, want ≈43 s", r.Index, r.DiedAt)
		}
	}
	if rep.LifeP50 == 0 || rep.LifeP90 < rep.LifeP50 {
		t.Fatalf("bad life percentiles: p50 %v p90 %v", rep.LifeP50, rep.LifeP90)
	}
}

func TestFleetModeEquivalence(t *testing.T) {
	// The whole fleet must produce identical results in production and
	// under the reference configuration.
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testCfg(4)
	cfg.Devices = 8
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Reference = true
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The Diagnostics are the fields that legitimately differ (they measure how many instants the
	// engine visited and how flow batches, netd sweeps and charger
	// quanta were advanced — precisely what next-event advancement and
	// closed-form settlement reduce); instants must be *fewer* in
	// production, and everything else identical.
	for i := range a.Results {
		if b.Results[i].EngineSteps < a.Results[i].EngineSteps {
			t.Fatalf("device %d: production executed more instants (%d) than the reference (%d)",
				i, a.Results[i].EngineSteps, b.Results[i].EngineSteps)
		}
		a.Results[i].Diagnostics = Diagnostics{}
		b.Results[i].Diagnostics = Diagnostics{}
	}
	if !reflect.DeepEqual(a.Results, b.Results) {
		t.Fatalf("the reference changed fleet results:\n%s\nvs\n%s", a.Format(), b.Format())
	}
	// The canonical JSON — the engine-invariant projection — must be
	// byte-identical without any scrubbing.
	aj, err := a.CanonicalJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.CanonicalJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatal("canonical JSON diverges between production and the reference")
	}
}

// runFresh is Run with every device built on a fresh rig instead of
// recycling its worker's machinery — production devices otherwise, so
// the full report, engine diagnostics included, must match Run's.
func runFresh(t *testing.T, cfg Config) Report {
	t.Helper()
	workers, err := cfg.validate()
	if err != nil {
		t.Fatal(err)
	}
	agg := newAggregate()
	var results []DeviceResult
	err = pass(cfg, workers, 0, cfg.Devices, nil,
		func(idx, _ int, _ []byte, rg *rig) outcome {
			*rg = rig{}
			d, res, err := buildDevice(cfg, idx, rg)
			if err != nil {
				return outcome{err: err}
			}
			d.Kernel.Run(cfg.Duration)
			extractResult(d, res)
			return outcome{res: *res}
		},
		func(_ int, o outcome) error {
			agg.add(o.res)
			if cfg.KeepResults {
				results = append(results, o.res)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	rep := agg.finish(cfg.identity())
	rep.Workers = workers
	rep.Results = results
	return rep
}

// TestFleetRecycleEquivalence: recycling a worker's kernel/radio/netd
// machinery across devices must be invisible — the full JSON report
// (engine diagnostics included) must be byte-identical to building
// every device from scratch. A single worker maximizes reuse (31 of 32
// devices run on recycled machinery).
func TestFleetRecycleEquivalence(t *testing.T) {
	cfg := testCfg(1)
	recycled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := runFresh(t, cfg)
	rj, err := recycled.JSON(true)
	if err != nil {
		t.Fatal(err)
	}
	fj, err := fresh.JSON(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rj, fj) {
		t.Fatalf("device recycling changed the report:\n%s\nvs\n%s",
			recycled.Format(), fresh.Format())
	}
}

// TestFleetRecycleEquivalenceMixed runs the heterogeneous mix — every
// workload type, Smdd construction, battery deaths — through recycled
// and fresh machinery. Mixed scenarios are the hard case: consecutive
// devices on one worker rebuild completely different object populations
// into the same recycled memory.
func TestFleetRecycleEquivalenceMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{
		Devices:     10,
		Seed:        21,
		Duration:    4 * units.Hour,
		Workers:     2,
		Scenario:    DayInTheLife(),
		KeepResults: true,
	}
	recycled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := runFresh(t, cfg)
	rj, err := recycled.JSON(true)
	if err != nil {
		t.Fatal(err)
	}
	fj, err := fresh.JSON(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rj, fj) {
		t.Fatal("device recycling changed the mixed-scenario report")
	}
}

// maxRecycledIdleBuildAllocs is the allocation ceiling of one recycled
// idle device build: the per-device object graph (root container,
// reserves, gates, labels) and the device's result and battery watch.
// The engine seeds its RNG on the first draw, and the kernel and netd
// bind their task bodies and hooks once per rig, so none of them costs
// a recycled build anything.
const maxRecycledIdleBuildAllocs = 23

// TestRecycledIdleBuildAllocs pins the per-device fixed cost of a
// recycled rig: an idle device never draws from its RNG and runs no
// workload, so what a build allocates is what a million idle devices
// pay a million times.
func TestRecycledIdleBuildAllocs(t *testing.T) {
	cfg := Config{Devices: 1000, Seed: 1, Duration: 24 * units.Hour, Workers: 1, Scenario: IdleScenario{}}
	var rg rig
	idx := 0
	build := func() {
		if _, _, err := buildDevice(cfg, idx%cfg.Devices, &rg); err != nil {
			t.Fatal(err)
		}
		idx++
	}
	for i := 0; i < 3; i++ {
		build() // the first build makes the rig; the rest warm its freelists
	}
	if n := testing.AllocsPerRun(200, build); n > maxRecycledIdleBuildAllocs {
		t.Fatalf("recycled idle build allocates %v objects, ceiling %d", n, maxRecycledIdleBuildAllocs)
	}
}

// TestFleetStreamingDropsResults: without KeepResults the run reduces
// results as they stream and the report must not retain the per-device
// array — the property that keeps 100k-device fleets in O(workers)
// memory.
func TestFleetStreamingDropsResults(t *testing.T) {
	cfg := testCfg(4)
	cfg.KeepResults = false
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Fatalf("streaming run retained %d results, want 0", len(rep.Results))
	}
	kept, err := Run(testCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	// The streamed aggregate must equal the retained-results aggregate.
	rep.Results = kept.Results
	if !reflect.DeepEqual(rep, kept) {
		t.Fatalf("streaming changed the aggregate:\n%s\nvs\n%s", rep.Format(), kept.Format())
	}
}

func TestDeriveSeedSpread(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 10_000; i++ {
		s := DeriveSeed(1, i)
		if seen[s] {
			t.Fatalf("duplicate derived seed at index %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("fleet seed does not influence device seeds")
	}
}

func TestFleetConfigValidation(t *testing.T) {
	if _, err := Run(Config{Devices: 0, Scenario: IdleScenario{}, Duration: units.Second}); err == nil {
		t.Error("zero devices accepted")
	}
	if _, err := Run(Config{Devices: 1, Duration: units.Second}); err == nil {
		t.Error("nil scenario accepted")
	}
	if _, err := Run(Config{Devices: 1, Scenario: IdleScenario{}}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Run(Config{Devices: 1, Scenario: IdleScenario{}, Duration: units.Second,
		LifeResolution: -units.Second}); err == nil {
		t.Error("negative life resolution accepted")
	}
	if _, err := Run(Config{Devices: 1, Scenario: IdleScenario{}, Duration: units.Second,
		BatteryCapacity: -1}); err == nil || !strings.Contains(err.Error(), "battery") {
		t.Errorf("negative battery capacity: got %v, want a refusal naming it", err)
	}
	if _, err := Run(Config{Devices: 1, Scenario: IdleScenario{}, Duration: units.Second,
		CheckpointDir: t.TempDir(), CheckpointEvery: -units.Hour}); err == nil || !strings.Contains(err.Error(), "CheckpointEvery") {
		t.Errorf("negative checkpoint interval: got %v, want a refusal naming CheckpointEvery", err)
	}
}

func TestFleetDeathAtTimeZero(t *testing.T) {
	// A battery too small to cover even one baseline batch dies at the
	// very first watch firing (t=0); the Died flag must still count it.
	rep, err := Run(Config{
		Devices:         2,
		Seed:            1,
		Duration:        units.Second,
		Workers:         1,
		Scenario:        IdleScenario{},
		BatteryCapacity: units.Microjoule,
		KeepResults:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dead != 2 {
		t.Fatalf("Dead = %d, want 2\n%s", rep.Dead, rep.Format())
	}
	for _, r := range rep.Results {
		if !r.Died || r.DiedAt != 0 {
			t.Fatalf("device %d: Died=%v DiedAt=%v, want death at t=0", r.Index, r.Died, r.DiedAt)
		}
	}
}

func TestLifeSketchNearestRank(t *testing.T) {
	// The aggregator's life percentiles come from the mergeable
	// quantile sketch: nearest-rank semantics over log-linear buckets,
	// reported as the containing bucket's lower bound.
	var h sketch.Hist
	for i := 1; i <= 10; i++ {
		h.Add(int64(i) * int64(units.Second))
	}
	p50 := units.Time(h.Quantile(50))
	p90 := units.Time(h.Quantile(90))
	if p50 > 5*units.Second || 5*units.Second-p50 > 5*units.Second>>sketch.SubBits {
		t.Errorf("p50 = %v, want 5 s within one sub-bucket", p50)
	}
	if p90 > 9*units.Second || 9*units.Second-p90 > 9*units.Second>>sketch.SubBits {
		t.Errorf("p90 = %v, want 9 s within one sub-bucket", p90)
	}
	if p90 <= p50 {
		t.Errorf("p90 %v not above p50 %v", p90, p50)
	}
}

// TestAggregateSingleDevice: the degenerate fleet must produce
// self-consistent aggregates (min = max = mean, one bucket covering the
// device).
func TestAggregateSingleDevice(t *testing.T) {
	rep, err := Run(Config{
		Devices: 1, Seed: 2, Duration: 30 * units.Second, Workers: 1, Scenario: IdleScenario{},
		KeepResults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinConsumed != rep.MaxConsumed || rep.MeanConsumed != rep.MinConsumed {
		t.Fatalf("single-device aggregates disagree: min %v mean %v max %v",
			rep.MinConsumed, rep.MeanConsumed, rep.MaxConsumed)
	}
	if rep.TotalConsumed != rep.Results[0].Consumed {
		t.Fatalf("total %v != device consumed %v", rep.TotalConsumed, rep.Results[0].Consumed)
	}
	if len(rep.Buckets) != 1 || rep.Buckets[0].Name != "idle" || rep.Buckets[0].Devices != 1 {
		t.Fatalf("bad buckets for single device: %+v", rep.Buckets)
	}
	if rep.Dead != 0 || rep.LifeP50 != 0 || rep.LifeP90 != 0 {
		t.Fatalf("phantom deaths: dead %d p50 %v p90 %v", rep.Dead, rep.LifeP50, rep.LifeP90)
	}
}

// TestAggregateAllDead: when every device dies the percentiles must
// come from the full population and the buckets must agree.
func TestAggregateAllDead(t *testing.T) {
	rep, err := Run(Config{
		Devices:         2,
		Seed:            4,
		Duration:        5 * units.Minute,
		Workers:         2,
		Scenario:        IdleScenario{},
		BatteryCapacity: 30 * units.Joule, // ≈43 s at 699 mW
		KeepResults:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dead != 2 {
		t.Fatalf("Dead = %d, want 2", rep.Dead)
	}
	// Nearest-rank over two deaths: p50 tracks the earlier, p90 the
	// later — as sketch bucket lower bounds, within one sub-bucket.
	a, b := rep.Results[0].DiedAt, rep.Results[1].DiedAt
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	within := func(got, want units.Time) bool {
		return got <= want && want-got <= want>>sketch.SubBits+1
	}
	if !within(rep.LifeP50, lo) || !within(rep.LifeP90, hi) {
		t.Fatalf("percentiles p50 %v p90 %v, want within a sub-bucket of %v and %v", rep.LifeP50, rep.LifeP90, lo, hi)
	}
	if len(rep.Buckets) != 1 || rep.Buckets[0].Dead != 2 ||
		rep.Buckets[0].LifeP50 != rep.LifeP50 || rep.Buckets[0].LifeP90 != rep.LifeP90 {
		t.Fatalf("bucket deaths disagree with fleet: %+v", rep.Buckets[0])
	}
}
