package fleet

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"os"
	"testing"

	"repro/internal/units"
)

// monthPins are the md5s of the epoch files a 16-device, seed-1, 72 h
// month-in-the-life run writes with daily epochs — the same files
// `cinder-fleet -devices 16 -duration 72h -scenario monthinthelife
// -checkpoint-dir d` writes. A change to any section's layout must bump
// snap.Version and re-pin them; a change that is not meant to touch the
// layout must leave them alone.
var monthPins = []string{
	"46d6d52abf8bcdaad7da5ec8b75945a7", // epoch-0000.bin
	"51723bbfd287c8f15d147d7e0020457b", // epoch-0001.bin
}

func fileMD5(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := md5.Sum(b)
	return hex.EncodeToString(sum[:])
}

// TestEpochBytesPinned: the month epoch files match their pins at 1 and
// 4 workers, cover the charger, estimator, data-plan, smdd, browse and
// pollers sections, and a resume after losing the newest file rewrites
// it to the same pin and reports the same canonical bytes.
func TestEpochBytesPinned(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := Config{
			Devices:       16,
			Seed:          1,
			Duration:      72 * units.Hour,
			Workers:       workers,
			Scenario:      MonthInTheLife(),
			CheckpointDir: t.TempDir(),
		}
		full, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for e, want := range monthPins {
			if got := fileMD5(t, epochPath(cfg, e)); got != want {
				t.Fatalf("%d workers: epoch %d md5 %s, pinned %s", workers, e, got, want)
			}
		}
		if workers > 1 {
			continue
		}
		first, err := os.ReadFile(epochPath(cfg, 0))
		if err != nil {
			t.Fatal(err)
		}
		for _, tag := range []string{"charger", "estimator", "netquota", "smdd", "browse", "pollers"} {
			if !bytes.Contains(first, []byte(tag)) {
				t.Errorf("epoch 0 has no %q section", tag)
			}
		}

		if err := os.Remove(epochPath(cfg, 1)); err != nil {
			t.Fatal(err)
		}
		cfg.Resume = true
		resumed, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fileMD5(t, epochPath(cfg, 1)); got != monthPins[1] {
			t.Fatalf("regenerated epoch 1 md5 %s, pinned %s", got, monthPins[1])
		}
		if a, b := canonical(t, full), canonical(t, resumed); !bytes.Equal(a, b) {
			t.Fatalf("resumed month diverged from uninterrupted run:\n%s\nvs\n%s", a, b)
		}
	}
}

// TestPollerCheckpointMatchesUninterrupted: the CLI's default scenario
// keeps every completed poll across epochs. Each epoch rebuilds the
// pollers with no completed polls, so without the scenario's hook a
// checkpointed run reports only the last epoch's.
func TestPollerCheckpointMatchesUninterrupted(t *testing.T) {
	cfg := Config{
		Devices:         8,
		Seed:            1,
		Duration:        48 * units.Hour,
		Workers:         2,
		Scenario:        PollerScenario{},
		BatteryCapacity: units.Joules(200000),
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir = t.TempDir()
	ckpt, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := canonical(t, plain), canonical(t, ckpt); !bytes.Equal(a, b) {
		t.Fatalf("checkpointed poller run diverged from uninterrupted run:\n%s\nvs\n%s", a, b)
	}
}
