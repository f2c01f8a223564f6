package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/snap"
	"repro/internal/units"
)

// TestJobWireRoundTrip: a job built from a run config must survive its
// JSON wire form with every identity field intact, and the
// round-tripped job must materialize the same shard configs.
func TestJobWireRoundTrip(t *testing.T) {
	dir := t.TempDir()
	job, err := NewJob(Config{
		Devices:         30,
		Seed:            21,
		Duration:        24 * units.Hour,
		Scenario:        DayInTheLife(),
		BatteryCapacity: units.Joules(50),
		CheckpointDir:   dir,
		CheckpointEvery: 6 * units.Hour,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJob(b)
	if err != nil {
		t.Fatal(err)
	}
	// The in-process scenario override must NOT survive the wire; all
	// exported fields must.
	job.scenario = nil
	if back != job {
		t.Fatalf("job mangled in round trip:\n%+v\nvs\n%+v", back, job)
	}
	cfgA, err := job.ShardConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err := back.ShardConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfgA.Scenario.Name() != cfgB.Scenario.Name() {
		t.Fatalf("scenario resolution diverged: %q vs %q", cfgA.Scenario.Name(), cfgB.Scenario.Name())
	}
	cfgA.Scenario, cfgB.Scenario = nil, nil
	if !reflect.DeepEqual(cfgA, cfgB) {
		t.Fatalf("shard config diverged:\n%+v\nvs\n%+v", cfgA, cfgB)
	}
}

// TestJobValidate: every malformed spec must be rejected loudly.
func TestJobValidate(t *testing.T) {
	good := Job{Identity: Identity{Scenario: "poller", Devices: 10, Duration: units.Second,
		LifeResolution: DefaultLifeResolution}, Shards: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Job)
		want string
	}{
		{"unknown scenario", func(j *Job) { j.Scenario = "nope" }, "unknown scenario"},
		{"zero devices", func(j *Job) { j.Devices = 0 }, "at least 1 device"},
		{"zero duration", func(j *Job) { j.Duration = 0 }, "duration"},
		{"zero shards", func(j *Job) { j.Shards = 0 }, "shard plan"},
		{"more shards than devices", func(j *Job) { j.Shards = 11 }, "shard plan"},
		{"negative life resolution", func(j *Job) { j.LifeResolution = -1 }, "life resolution"},
		{"unnormalized life resolution", func(j *Job) { j.LifeResolution = 0 }, "life resolution"},
	} {
		j := good
		tc.mut(&j)
		if err := j.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestOneShardJobMatchesRun: the one shard of a one-shard job, run
// through RunShard and merged back, is exactly fleet.Run — the
// single-process run is the degenerate one-runner case of the job path,
// byte for byte. Run accepts that shard's config too.
func TestOneShardJobMatchesRun(t *testing.T) {
	cfg := shardBase(40)
	whole, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	scfg, err := job.ShardConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Workers = 2
	part, err := RunShard(scfg)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := job.Merge([]*Partial{part})
	if err != nil {
		t.Fatal(err)
	}
	viaRun, err := Run(scfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err1 := whole.JSON(false)
	b, err2 := merged.JSON(false)
	c, err3 := viaRun.JSON(false)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	if !bytes.Equal(a, b) || !bytes.Equal(a, c) {
		t.Fatalf("degenerate job run diverged from fleet.Run:\n%s\nvs\n%s\nvs\n%s", a, b, c)
	}
}

// TestReferenceRefusedOnJobPaths: the reference configuration is
// single-process. Every entry point that would carry it into a job, a
// shard or a partial refuses it with an error naming -reference.
func TestReferenceRefusedOnJobPaths(t *testing.T) {
	cfg := shardBase(8)
	cfg.Reference = true
	if _, err := NewJob(cfg, 2); err == nil || !strings.Contains(err.Error(), "-reference") {
		t.Errorf("NewJob: got %v, want a refusal naming -reference", err)
	}
	job, err := NewJob(shardBase(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err = job.ShardConfig(1); err != nil {
		t.Fatal(err)
	}
	cfg.Reference = true
	if _, err := RunShard(cfg); err == nil || !strings.Contains(err.Error(), "-reference") {
		t.Errorf("RunShard: got %v, want a refusal naming -reference", err)
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "-reference") {
		t.Errorf("Run of a sharded config: got %v, want a refusal naming -reference", err)
	}
}

// TestParsePartialRejectsStaleFormat: a partial in an older format is
// refused instead of merged — v1 still recorded engine and settle modes,
// v2 still carried fleet-wide counter copies beside the bucket sums, v3
// named and ordered the bucket sums differently from Counters.
func TestParsePartialRejectsStaleFormat(t *testing.T) {
	for _, tc := range []struct{ version, partial string }{
		{"v1", `{"format":"cinder-fleet-partial","version":1,"scenario":"poller","devices":4,"seed":1,` +
			`"duration_ms":1000,"battery_uj":0,"engine_mode":1,"settle_mode":0,"netd_settle_mode":0,` +
			`"life_resolution_ms":1000,"shard_index":0,"shard_count":1,"range_lo":0,"range_hi":4,` +
			`"agg":{"seen":4},"buckets":[]}`},
		{"v2", `{"format":"cinder-fleet-partial","version":2,"scenario":"poller","devices":4,"seed":1,` +
			`"duration_ms":1000,"battery_uj":0,"life_resolution_ms":1000,"shard_index":0,"shard_count":1,` +
			`"range_lo":0,"range_hi":4,"agg":{"seen":4,"total_consumed_uj":40,"min_consumed_uj":10,` +
			`"max_consumed_uj":10,"busy_ticks":0,"idle_ticks":4,"polls":0,"radio_activations":0,` +
			`"netd_power_ups":0,"engine_steps":4,"flow_walks":0,"settled_batches":0,"settled_sweeps":0,"dead":0},` +
			`"buckets":[{"name":"poller","devices":4,"total_consumed_uj":40,"busy_ticks":0,"idle_ticks":4,` +
			`"polls":0,"pages":0,"radio_activations":0,"netd_power_ups":0,"sms_sent":0,"calls_placed":0,` +
			`"engine_steps":4,"flow_walks":0,"settled_batches":0,"settled_sweeps":0,"dead":0}]}`},
		{"v3", `{"format":"cinder-fleet-partial","version":3,"scenario":"poller","devices":4,"seed":1,` +
			`"duration_ms":1000,"battery_uj":0,"life_resolution_ms":1000,"shard_index":0,"shard_count":1,` +
			`"range_lo":0,"range_hi":4,"agg":{"seen":4,"min_consumed_uj":10,"max_consumed_uj":10},` +
			`"buckets":[{"name":"poller","devices":4,"total_consumed_uj":40,"busy_ticks":0,"idle_ticks":4,` +
			`"polls":0,"pages":0,"radio_activations":0,"netd_power_ups":0,"sms_sent":0,"calls_placed":0,` +
			`"engine_steps":4,"flow_walks":0,"settled_batches":0,"settled_sweeps":0,"dead":0}]}`},
	} {
		_, err := ParsePartial([]byte(tc.partial))
		if err == nil || !strings.Contains(err.Error(), "partial report "+tc.version) {
			t.Errorf("stale %s partial: got %v, want a version refusal", tc.version, err)
		}
	}
}

// distinctIdentity sets every Identity field, found by reflection, to a
// distinct non-zero value, so a field added later is covered below
// without editing this helper.
func distinctIdentity(t *testing.T) Identity {
	t.Helper()
	var id Identity
	v := reflect.ValueOf(&id).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("run-%d", i))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i+1) * 1_000_003)
		default:
			t.Fatalf("Identity field %s is a %v; teach distinctIdentity and the codecs about it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return id
}

// renamed is a workload answering to an arbitrary name.
type renamed struct {
	IdleScenario
	name string
}

func (r renamed) Name() string { return r.name }

// TestIdentityRoundTrip: every Identity field survives each codec that
// carries it — the epoch header, the partial's and the job's JSON, and
// the conversion to a Config and back — and a change to any one field
// is named by drift.
func TestIdentityRoundTrip(t *testing.T) {
	id := distinctIdentity(t)

	t.Run("epoch header", func(t *testing.T) {
		blob, err := snap.Save(id.codec)
		if err != nil {
			t.Fatal(err)
		}
		var back Identity
		if err := snap.Load(blob, back.codec); err != nil || back != id {
			t.Fatalf("load(save(id)) = %+v, %v; want %+v", back, err, id)
		}
	})
	t.Run("partial and job JSON", func(t *testing.T) {
		b, err := json.Marshal(Partial{Identity: id})
		if err != nil {
			t.Fatal(err)
		}
		var p Partial
		if err := json.Unmarshal(b, &p); err != nil || p.Identity != id {
			t.Fatalf("partial round trip: %+v, %v; want %+v", p.Identity, err, id)
		}
		if b, err = json.Marshal(Job{Identity: id}); err != nil {
			t.Fatal(err)
		}
		var j Job
		if err := json.Unmarshal(b, &j); err != nil || j.Identity != id {
			t.Fatalf("job round trip: %+v, %v; want %+v", j.Identity, err, id)
		}
	})
	t.Run("config", func(t *testing.T) {
		if back := id.config(renamed{name: id.Scenario}).identity(); back != id {
			t.Fatalf("config(id).identity() = %+v, want %+v", back, id)
		}
	})
	t.Run("drift", func(t *testing.T) {
		if d := id.drift(id); d != "" {
			t.Fatalf("identical runs drift: %s", d)
		}
		typ := reflect.TypeOf(id)
		for i := 0; i < typ.NumField(); i++ {
			got := id
			f := reflect.ValueOf(&got).Elem().Field(i)
			if f.Kind() == reflect.String {
				f.SetString("other")
			} else {
				f.SetInt(-f.Int())
			}
			name := typ.Field(i).Tag.Get("json")
			if d := id.drift(got); !strings.HasPrefix(d, name+" is ") {
				t.Errorf("changing %s: drift %q does not name %s", typ.Field(i).Name, d, name)
			}
		}
	})
}

// TestBindFlags: the run flags both CLIs share parse into the expected
// Config, and an unknown scenario is refused naming the registry.
func TestBindFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	build := BindFlags(fs)
	if err := fs.Parse([]string{"-devices", "40", "-seed", "9", "-duration", "6h", "-scenario", "dayinthelife",
		"-battery-j", "2000", "-checkpoint-dir", "ckpt", "-checkpoint-every", "2h"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scenario == nil || cfg.Scenario.Name() != "dayinthelife" {
		t.Fatalf("scenario %v, want dayinthelife", cfg.Scenario)
	}
	cfg.Scenario = nil
	want := Config{Devices: 40, Seed: 9, Duration: 6 * units.Hour, BatteryCapacity: units.Joules(2000),
		CheckpointDir: "ckpt", CheckpointEvery: 2 * units.Hour}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("flags built\n%+v\nwant\n%+v", cfg, want)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	build = BindFlags(fs)
	if err := fs.Parse([]string{"-scenario", "nope"}); err != nil {
		t.Fatal(err)
	}
	if _, err := build(); err == nil || !strings.Contains(err.Error(), `unknown scenario "nope"`) ||
		!strings.Contains(err.Error(), scenarioNames()) {
		t.Fatalf("unknown scenario: got %v, want a refusal listing %s", err, scenarioNames())
	}
}
