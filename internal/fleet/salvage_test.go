package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/snap"
	"repro/internal/units"
)

// damage mutates an epoch file in place the way a storage failure
// would.
func bitflip(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func truncateTo(t *testing.T, path string, frac float64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(float64(fi.Size())*frac)); err != nil {
		t.Fatal(err)
	}
}

// TestResumeSalvagesDamagedNewestEpoch: when the newest epoch file is
// corrupt — flipped bits or a torn (truncated) write — -resume must
// quarantine it with a report, fall back to the epoch before it,
// re-simulate only the lost epochs, and still produce the exact
// canonical bytes of the uninterrupted run.
func TestResumeSalvagesDamagedNewestEpoch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"bit-flip", bitflip},
		{"torn-write", func(t *testing.T, path string) { truncateTo(t, path, 0.6) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := weekCfg(t, 12, dir)
			full, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			newest := epochPath(cfg, 5) // days 1..6 wrote epochs 0..5
			pristine, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, newest)

			var warns []string
			firstEpoch := -1
			rcfg := cfg
			rcfg.Resume = true
			rcfg.Warnf = func(format string, args ...any) {
				warns = append(warns, strings.TrimSpace(format))
				t.Logf(format, args...)
			}
			rcfg.Progress = func(p Progress) error {
				if firstEpoch < 0 {
					firstEpoch = p.Epoch
				}
				return nil
			}
			resumed, err := Run(rcfg)
			if err != nil {
				t.Fatalf("resume over damaged newest epoch: %v", err)
			}
			if a, b := canonical(t, full), canonical(t, resumed); !bytes.Equal(a, b) {
				t.Fatalf("salvaged resume diverged from uninterrupted run:\n%s\nvs\n%s", a, b)
			}

			// Fell back exactly one epoch: only the final two simulated
			// days were re-run.
			if firstEpoch != 5 {
				t.Fatalf("salvage restarted at epoch %d, want 5 (one epoch of fallback)", firstEpoch)
			}
			warned := false
			for _, w := range warns {
				if strings.Contains(w, "quarantining") {
					warned = true
				}
			}
			if !warned {
				t.Fatalf("no quarantine warning emitted; warnings: %q", warns)
			}

			// The bad bytes are preserved for diagnosis beside a report…
			if _, err := os.Stat(newest + ".corrupt"); err != nil {
				t.Fatalf("quarantined file missing: %v", err)
			}
			report, err := os.ReadFile(newest + ".corrupt.report")
			if err != nil {
				t.Fatalf("quarantine report missing: %v", err)
			}
			for _, want := range []string{"quarantined", "fell back"} {
				if !strings.Contains(string(report), want) {
					t.Errorf("quarantine report does not mention %q:\n%s", want, report)
				}
			}
			// …and the resumed run regenerated the epoch file byte-for-byte.
			regen, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(regen, pristine) {
				t.Fatal("regenerated epoch file differs from the pristine original")
			}
		})
	}
}

// TestResumeAllCorruptFailsLoudly: when every epoch file is damaged,
// strict -resume must fail with an error that points at the quarantined
// files instead of the bare "no complete epoch file" shrug.
func TestResumeAllCorruptFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	cfg := weekCfg(t, 8, dir)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for e := 0; e <= 5; e++ {
		truncateTo(t, epochPath(cfg, e), 0.5)
	}
	rcfg := cfg
	rcfg.Resume = true
	rcfg.Warnf = func(format string, args ...any) { t.Logf(format, args...) }
	_, err := Run(rcfg)
	if err == nil {
		t.Fatal("resume over an all-corrupt checkpoint dir succeeded")
	}
	for _, want := range []string{"quarantined", "corrupt.report"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestResumeSkipsForeignEpochWithoutQuarantine: a structurally sound
// epoch file from a different run configuration is not corruption — it
// must be skipped with a warning and left untouched, never renamed to
// .corrupt.
func TestResumeSkipsForeignEpochWithoutQuarantine(t *testing.T) {
	dir := t.TempDir()
	foreign := weekCfg(t, 8, dir)
	foreign.Seed = 999
	if _, err := Run(foreign); err != nil {
		t.Fatal(err)
	}
	cfg := weekCfg(t, 8, dir)
	rcfg := cfg
	rcfg.Resume = true
	var warns []string
	rcfg.Warnf = func(format string, args ...any) { warns = append(warns, format) }
	if _, err := Run(rcfg); err == nil {
		t.Fatal("resume against a foreign run's epoch files succeeded")
	}
	if files, _ := os.ReadDir(dir); len(files) > 0 {
		for _, f := range files {
			if strings.Contains(f.Name(), ".corrupt") {
				t.Fatalf("foreign epoch file was quarantined: %s", f.Name())
			}
		}
	}
	skipped := false
	for _, w := range warns {
		if strings.Contains(w, "skipping") {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("no skip warning for foreign epoch files; warnings: %q", warns)
	}
}

// TestCheckpointBoundaryMidPollNamesWorkload: a device whose poll phase
// spans two epoch boundaries cannot be saved at the first or at any
// instant up to the second. The run fails before publishing an epoch
// file, with an error naming the device, its scenario bucket, the
// boundary, the section that refused and the remedy, a longer
// -checkpoint-every.
func TestCheckpointBoundaryMidPollNamesWorkload(t *testing.T) {
	cfg := Config{
		Devices:  1,
		Seed:     5,
		Duration: units.Hour,
		Workers:  1,
		Scenario: Compose{Label: "pollers", Phases: []Phase{
			{Workload: Pollers{Pollers: 2, Interval: 60 * units.Second},
				Start: 0, Duration: units.Hour},
		}},
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 20 * units.Minute,
	}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("a phase spanning two boundaries checkpointed")
	}
	for _, want := range []string{"device 0", `bucket "pollers"`,
		fmt.Sprintf("the %v boundary", 20*units.Minute), fmt.Sprint(40 * units.Minute), "kobj: ",
		"pick a -checkpoint-every longer"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("boundary error %q does not mention %q", err, want)
		}
	}
	if left, _ := os.ReadDir(cfg.CheckpointDir); len(left) != 0 {
		t.Fatalf("the failed run left %d files in the checkpoint dir", len(left))
	}
}

// TestResumeSkipsStaleFormatEpoch: an epoch file written under the older
// snapshot layout, whose header still carried engine and settle modes,
// is neither resumed from nor quarantined. Resume skips it with a
// warning naming both versions; a strict -resume then fails loudly.
func TestResumeSkipsStaleFormatEpoch(t *testing.T) {
	dir := t.TempDir()
	cfg := weekCfg(t, 4, dir)
	cfg.Duration = 2 * 24 * units.Hour // one epoch file
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	path := epochPath(cfg, 0)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte(snap.Magic)) // the header frame's snapshot
	binary.LittleEndian.PutUint32(b[i+len(snap.Magic):], 1)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := openEpochReader(cfg, planEpochs(cfg), 0, 0, cfg.Devices); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("snapshot is v1, this build reads v%d", snap.Version)) {
		t.Fatalf("opening a stale-format epoch: got %v, want a descriptive version error", err)
	}
	rcfg := cfg
	rcfg.Resume = true
	var warns []string
	rcfg.Warnf = func(format string, args ...any) { warns = append(warns, fmt.Sprintf(format, args...)) }
	if _, err := Run(rcfg); err == nil || !strings.Contains(err.Error(), "no complete epoch file") {
		t.Fatalf("resume from a stale-format epoch: got %v, want a loud refusal", err)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "skipping") || !strings.Contains(warns[0], "v1") {
		t.Fatalf("want one skip warning naming the stale version, got %q", warns)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("stale-format epoch file was moved: %v", err)
	}
}

// TestResumeRefusesReferenceEpoch: epoch headers no longer record the
// engine configuration, so a production resume from a reference run's
// epoch file is caught by the engine section's mode check — loudly,
// naming the device and the file its record came from.
func TestResumeRefusesReferenceEpoch(t *testing.T) {
	cfg := Config{
		Devices:         1,
		Seed:            3,
		Duration:        20 * units.Minute,
		Workers:         1,
		Scenario:        Scenarios()["idle"],
		Reference:       true,
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 10 * units.Minute,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Reference, cfg.Resume = false, true
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(),
		"fleet: device 0: epoch-0000.bin: engine: restore: snapshot mode fixed-tick, engine mode next-event") {
		t.Fatalf("production resume of a reference epoch: got %v, want the engine mode mismatch naming the device and its file", err)
	}
}
