package fleet

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"os"
	"path/filepath"
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
	"cccb418c15192904eee2f9c481860657", // epoch-0000.bin
	"9d5424854bd38f57f0f4a5a0e1c6a09e", // epoch-0001.bin
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
// pollers sections, the checkpointed run reports the canonical bytes of
// an uncheckpointed one, and a resume after losing the newest file
// rewrites it to the same pin and reports the same canonical bytes.
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

		plain := cfg
		plain.CheckpointDir = ""
		uninterrupted, err := Run(plain)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := canonical(t, uninterrupted), canonical(t, full); !bytes.Equal(a, b) {
			t.Fatalf("checkpointed month diverged from uncheckpointed run:\n%s\nvs\n%s", a, b)
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

// TestEpochFilesDoNotGrow: a fleet device's checkpoint carries its
// state, not its history, so a month run's daily epoch files stay flat
// over ten days — the last no more than 10% above the first. A radio
// state trace or netd pool trace written into every epoch grows them
// with simulated time (about 65% over the same run).
func TestEpochFilesDoNotGrow(t *testing.T) {
	cfg := Config{
		Devices:       8,
		Seed:          1,
		Duration:      240 * units.Hour,
		Workers:       2,
		Scenario:      MonthInTheLife(),
		CheckpointDir: t.TempDir(),
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(cfg.CheckpointDir, "epoch-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 9 { // daily epochs, none at the horizon
		t.Fatalf("run wrote %d epoch files, want 9: %v", len(files), files)
	}
	sizes := make([]int64, len(files))
	for i, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = fi.Size()
	}
	if first, last := sizes[0], sizes[len(sizes)-1]; last*10 > first*11 {
		t.Fatalf("epoch file sizes %v bytes: the last exceeds 1.1x the first, so files grow with simulated time", sizes)
	}
}
