package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
)

// TestPerDeviceEmitterCheckpointedRun: on a checkpointed run the
// emitter fires only on the aggregating final pass — once per device,
// in order, with the same values an uncheckpointed run streams.
func TestPerDeviceEmitterCheckpointedRun(t *testing.T) {
	cfg := Config{
		Devices:  8,
		Seed:     13,
		Duration: 3 * 24 * units.Hour,
		Workers:  2,
		Scenario: WeekInTheLife(),
	}
	var plain []DeviceResult
	cfg.PerDevice = func(r DeviceResult) error {
		plain = append(plain, r)
		return nil
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	var ckpt []DeviceResult
	cfg.CheckpointDir = t.TempDir()
	cfg.PerDevice = func(r DeviceResult) error {
		ckpt = append(ckpt, r)
		return nil
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(ckpt) != cfg.Devices {
		t.Fatalf("checkpointed run emitted %d results for %d devices", len(ckpt), cfg.Devices)
	}
	for i := range ckpt {
		// Engine diagnostics legitimately differ across epoch plans;
		// everything else must not.
		a, _ := ckpt[i].NDJSON(true)
		b, _ := plain[i].NDJSON(true)
		if !bytes.Equal(a, b) {
			t.Fatalf("device %d diverged between epoch plans:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// TestPerDeviceEmitterAborts: an emitter error must abort the run
// promptly and surface unchanged.
func TestPerDeviceEmitterAborts(t *testing.T) {
	boom := errors.New("emitter full")
	cfg := shardBase(40)
	seen := 0
	cfg.PerDevice = func(r DeviceResult) error {
		if seen++; seen > 5 {
			return boom
		}
		return nil
	}
	if _, err := Run(cfg); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the emitter's error", err)
	}
	if seen > 6 {
		t.Fatalf("emitter called %d times after aborting at 6", seen)
	}
}

// TestProgressStream: the Progress feed must advance monotonically
// through every epoch, announce each checkpoint publication, and end
// with the full simulated total.
func TestProgressStream(t *testing.T) {
	cfg := Config{
		Devices:       6,
		Seed:          13,
		Duration:      3 * 24 * units.Hour,
		Workers:       2,
		Scenario:      WeekInTheLife(),
		CheckpointDir: t.TempDir(),
	}
	var updates []Progress
	cfg.Progress = func(p Progress) error {
		updates = append(updates, p)
		return nil
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	wantDevices, wantEpochs := 6, 3
	if len(updates) != wantEpochs*wantDevices+(wantEpochs-1) {
		t.Fatalf("%d updates; want %d per-device × %d epochs + %d checkpoints",
			len(updates), wantDevices, wantEpochs, wantEpochs-1)
	}
	var lastSim units.Time
	var checkpoints []int
	epoch := 0
	for i, p := range updates {
		if p.Lo != 0 || p.Hi != wantDevices || p.Epochs != wantEpochs {
			t.Fatalf("update %d has wrong frame: %+v", i, p)
		}
		if p.Epoch < epoch {
			t.Fatalf("update %d went back to epoch %d from %d", i, p.Epoch, epoch)
		}
		epoch = p.Epoch
		if s := p.SimDone(); s < lastSim {
			t.Fatalf("update %d: SimDone regressed %v -> %v", i, lastSim, s)
		} else {
			lastSim = s
		}
		if p.Checkpointed {
			if p.Done != wantDevices || p.LastCheckpoint != p.Epoch {
				t.Fatalf("checkpoint update %d malformed: %+v", i, p)
			}
			checkpoints = append(checkpoints, p.LastCheckpoint)
		}
	}
	if len(checkpoints) != wantEpochs-1 || checkpoints[0] != 0 || checkpoints[1] != 1 {
		t.Fatalf("checkpoint announcements: %v", checkpoints)
	}
	final := updates[len(updates)-1]
	if final.SimDone() != final.SimTotal() {
		t.Fatalf("final SimDone %v != SimTotal %v", final.SimDone(), final.SimTotal())
	}
}

// TestProgressAborts: a Progress error must stop the run (this is how
// a runner abandons a shard whose lease was lost).
func TestProgressAborts(t *testing.T) {
	stop := errors.New("lease lost")
	cfg := shardBase(40)
	calls := 0
	cfg.Progress = func(p Progress) error {
		if calls++; calls >= 3 {
			return stop
		}
		return nil
	}
	if _, err := Run(cfg); !errors.Is(err, stop) {
		t.Fatalf("got %v, want the progress error", err)
	}
	if calls > 3+4*2 { // at most the in-flight admission window drains
		t.Fatalf("run kept going for %d progress calls after the abort", calls)
	}
}

// TestNDJSONForms: one compact line per device, parseable, and the
// canonical form zeroes exactly the engine diagnostics.
func TestNDJSONForms(t *testing.T) {
	cfg := shardBase(3)
	cfg.KeepResults = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[1]
	line, err := r.NDJSON(false)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(line, '\n') {
		t.Fatal("NDJSON line contains a newline")
	}
	var full map[string]any
	if err := json.Unmarshal(line, &full); err != nil {
		t.Fatal(err)
	}
	if int(full["index"].(float64)) != 1 || full["scenario"] == "" {
		t.Fatalf("line misses identity fields: %s", line)
	}

	canon, err := r.NDJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	var c map[string]any
	if err := json.Unmarshal(canon, &c); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"engine_steps", "flow_walks", "settled_batches", "settled_sweeps"} {
		if v, ok := c[k]; ok && v.(float64) != 0 {
			t.Fatalf("canonical line keeps diagnostic %s=%v", k, v)
		}
	}
	// Everything but the diagnostics agrees between the forms.
	for _, k := range []string{"consumed_uj", "polls", "scenario", "seed"} {
		af, bf := full[k], c[k]
		if af != bf {
			t.Fatalf("canonicalization changed %s: %v vs %v", k, af, bf)
		}
	}
	if strings.Count(string(line), "{") < 1 {
		t.Fatal("not a JSON object")
	}
}

// TestProgressText: the shared status-line arithmetic. Nothing but the
// percent is printed before work and wall time have both passed, and no
// ETA once the work is done.
func TestProgressText(t *testing.T) {
	day := 24 * units.Hour
	for _, tc := range []struct {
		name        string
		done, total units.Time
		elapsed     time.Duration
		want        string
	}{
		{"zero elapsed", day, 4 * day, 0, " 25.0%"},
		{"zero done", 0, 4 * day, time.Second, "  0.0%"},
		{"zero total", 0, 0, time.Second, "  0.0%"},
		{"running", day, 4 * day, 2 * time.Second, " 25.0%  0.5 device-days/s  ETA 6s"},
		{"done", 4 * day, 4 * day, 2 * time.Second, "100.0%  2.0 device-days/s"},
		{"past total", 5 * day, 4 * day, 2 * time.Second, "125.0%  2.5 device-days/s"},
	} {
		if got := ProgressText(tc.done, tc.total, tc.elapsed); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}
