package fleet

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snap"
	"repro/internal/units"
)

// weekCfg is the checkpoint suite's base config: a small heterogeneous
// week-in-the-life fleet whose battery draws put a death or two inside
// the horizon.
func weekCfg(t *testing.T, devices int, dir string) Config {
	t.Helper()
	return Config{
		Devices:       devices,
		Seed:          11,
		Duration:      7 * 24 * units.Hour,
		Workers:       2,
		Scenario:      WeekInTheLife(),
		KeepResults:   true,
		CheckpointDir: dir,
	}
}

func canonical(t *testing.T, rep Report) []byte {
	t.Helper()
	b, err := rep.CanonicalJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointedRunMatchesUninterrupted: running epoch by epoch
// through snapshot/restore machinery must not change a single canonical
// byte relative to the single-pass run — the snapshot round trip is
// lossless for everything the report can observe.
func TestCheckpointedRunMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	cfg := weekCfg(t, 12, "")
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir = dir
	ckpt, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := canonical(t, plain), canonical(t, ckpt); !bytes.Equal(a, b) {
		t.Fatalf("checkpointed run diverged from uninterrupted run:\n%s\nvs\n%s", a, b)
	}
	// Six epoch files (days 1..6; the final day aggregates instead).
	files, _ := filepath.Glob(filepath.Join(dir, "epoch-*.bin"))
	if len(files) != 6 {
		t.Fatalf("expected 6 epoch files, found %v", files)
	}
}

// TestResumeMatchesUninterrupted: interrupt after day N (simulated by
// removing the later epoch files), resume, and compare against the
// uninterrupted run — including the regenerated epoch file's bytes,
// which must be identical to the one the first run wrote.
func TestResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	cfg := weekCfg(t, 12, dir)
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Keep a copy of the day-5 epoch file, then "interrupt" the run
	// after day 3 by removing everything later.
	day5 := epochPath(cfg, 4)
	want5, err := os.ReadFile(day5)
	if err != nil {
		t.Fatal(err)
	}
	for e := 3; e <= 5; e++ {
		if err := os.Remove(epochPath(cfg, e)); err != nil {
			t.Fatal(err)
		}
	}

	cfg.Resume = true
	resumed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := canonical(t, full), canonical(t, resumed); !bytes.Equal(a, b) {
		t.Fatalf("resumed run diverged from uninterrupted run:\n%s\nvs\n%s", a, b)
	}
	got5, err := os.ReadFile(day5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want5, got5) {
		t.Fatal("regenerated epoch file differs from the original byte stream")
	}
}

// TestResumeRejectsConfigDrift: epoch files carry the run identity; a
// resume under a different configuration must fail loudly, not restore
// a garbage fleet.
func TestResumeRejectsConfigDrift(t *testing.T) {
	dir := t.TempDir()
	cfg := weekCfg(t, 8, dir)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	drifted := cfg
	drifted.Resume = true
	drifted.Seed = 999
	if _, err := Run(drifted); err == nil {
		t.Fatal("resume with a different seed succeeded")
	} else if !strings.Contains(err.Error(), "no complete epoch file") {
		t.Fatalf("undescriptive drift error: %v", err)
	}
}

// TestResumeWithoutCheckpointsFails: -resume with an empty directory is
// an explicit error.
func TestResumeWithoutCheckpointsFails(t *testing.T) {
	cfg := weekCfg(t, 8, t.TempDir())
	cfg.Resume = true
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "no complete epoch file") {
		t.Fatalf("want loud no-epoch error, got %v", err)
	}
}

// TestSnapshotCorruptionFailsLoudly covers the checkpoint versioning
// satellite end to end at the device level: a snapshot with a corrupted
// payload, a truncated stream, a wrong magic, or an unsupported version
// must produce a descriptive error — never a silently wrong device.
func TestSnapshotCorruptionFailsLoudly(t *testing.T) {
	cfg := weekCfg(t, 1, "")
	var rg rig
	d, _, err := buildDevice(cfg, 0, &rg)
	if err != nil {
		t.Fatal(err)
	}
	d.Kernel.Run(24 * units.Hour)
	blob, err := snap.Save(d.codec)
	if err != nil {
		t.Fatal(err)
	}

	rebuild := func() *Device {
		var rg2 rig
		d2, _, err := buildDevice(cfg, 0, &rg2)
		if err != nil {
			t.Fatal(err)
		}
		return d2
	}

	// The pristine snapshot must restore.
	if err := snap.Load(blob, rebuild().codec); err != nil {
		t.Fatalf("pristine snapshot failed to restore: %v", err)
	}

	corrupt := bytes.Clone(blob)
	corrupt[len(corrupt)/2] ^= 0xFF
	if err := snap.Load(corrupt, rebuild().codec); !errors.Is(err, snap.ErrChecksum) {
		t.Fatalf("corrupted payload: want ErrChecksum, got %v", err)
	}

	truncated := bytes.Clone(blob[:len(blob)/3])
	err = snap.Load(truncated, rebuild().codec)
	if !errors.Is(err, snap.ErrChecksum) && !errors.Is(err, snap.ErrTruncated) {
		t.Fatalf("truncated snapshot: want checksum/truncation error, got %v", err)
	}

	notSnap := []byte("GARBAGEGARBAGEGARBAGE")
	if err := snap.Load(notSnap, rebuild().codec); !errors.Is(err, snap.ErrMagic) {
		t.Fatalf("non-snapshot bytes: want ErrMagic, got %v", err)
	}

	wrongVer := bytes.Clone(blob)
	wrongVer[len(snap.Magic)] ^= 0x7F // version field follows the magic
	if err := snap.Load(wrongVer, rebuild().codec); !errors.Is(err, snap.ErrVersion) {
		t.Fatalf("wrong version: want ErrVersion, got %v", err)
	}
}

// TestRestoreOntoWrongDeviceFails: a snapshot must refuse to overlay a
// device with a different index/seed.
func TestRestoreOntoWrongDeviceFails(t *testing.T) {
	cfg := weekCfg(t, 2, "")
	var rg rig
	d0, _, err := buildDevice(cfg, 0, &rg)
	if err != nil {
		t.Fatal(err)
	}
	d0.Kernel.Run(24 * units.Hour)
	blob, err := snap.Save(d0.codec)
	if err != nil {
		t.Fatal(err)
	}
	var rg1 rig
	d1, _, err := buildDevice(cfg, 1, &rg1)
	if err != nil {
		t.Fatal(err)
	}
	err = snap.Load(blob, d1.codec)
	if err == nil || !strings.Contains(err.Error(), "onto device") {
		t.Fatalf("want wrong-device error, got %v", err)
	}
}

// TestCheckpointRefusesNonQuietBoundary: a device mid-activity (here:
// a browse phase straddling the boundary, with a live container, thread
// and funding tap) must refuse to save, naming the object census — never
// produce a record that silently drops its workload.
func TestCheckpointRefusesNonQuietBoundary(t *testing.T) {
	cfg := Config{
		Devices:  1,
		Seed:     3,
		Duration: time2h(),
		Workers:  1,
		Scenario: Compose{Label: "straddle", Phases: []Phase{
			{Workload: Browse{Pages: 200, ThinkMin: 20 * units.Second, ThinkMax: 40 * units.Second},
				Start: 30 * units.Minute, Duration: 90 * units.Minute},
		}},
	}
	var rg rig
	d, _, err := buildDevice(cfg, 0, &rg)
	if err != nil {
		t.Fatal(err)
	}
	d.Kernel.Run(units.Hour)
	if _, serr := snap.Save(d.codec); serr == nil || !strings.HasPrefix(serr.Error(), "kobj: ") {
		t.Fatalf("save of a mid-phase device: got %v, want the kobj census refusal", serr)
	}
}

func time2h() units.Time { return 2 * units.Hour }

// TestDeadDevicePassthrough: devices that die in an early epoch must
// carry their final result through later epoch files unchanged.
func TestDeadDevicePassthrough(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Devices:  6,
		Seed:     5,
		Duration: 3 * 24 * units.Hour,
		Workers:  2,
		// DayInTheLife does not provision per-device batteries, so the
		// fleet-level override is legal here (weekinthelife would reject
		// it loudly) and kills everything mid-day-2.
		Scenario:        DayInTheLife(),
		BatteryCapacity: 90 * units.Kilojoule,
		KeepResults:     true,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Dead != cfg.Devices {
		t.Fatalf("scenario did not kill the fleet (dead %d)", plain.Dead)
	}
	cfg.CheckpointDir = dir
	ckpt, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := canonical(t, plain), canonical(t, ckpt); !bytes.Equal(a, b) {
		t.Fatalf("dead-device passthrough diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestWatchEquivalence: the adaptive battery watch must detect every
// death at exactly the instant the reference's dense per-second polling
// does — idle devices after hours of deferred watching, busier ones
// after shorter quiescent stretches, and hoarders whose grab tap drains
// the battery the whole time. The hoarder cell also requires the watch
// to have deferred while that tap ran: each device executed fewer
// instants than the seconds it lived, which a watch polling every
// second would execute on its own.
func TestWatchEquivalence(t *testing.T) {
	for _, cell := range []struct {
		scenario Scenario
		deferred bool
	}{
		{DayInTheLife(), false}, // commuter, two idle, chatty
		{hoarderDrain{}, true},
	} {
		cfg := Config{
			Devices:         4,
			Seed:            9,
			Duration:        units.Hour,
			Workers:         2,
			Scenario:        cell.scenario,
			BatteryCapacity: 2 * units.Kilojoule, // every device dies mid-run
			KeepResults:     true,
		}
		adaptive, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Reference = true
		dense, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Canonical comparison: the adaptive watch executes fewer engine
		// instants (that is its point), so the step diagnostics differ;
		// everything observable — consumption, every death instant,
		// utilization, workload counters — must match to the byte.
		aj, err1 := adaptive.CanonicalJSON(true)
		dj, err2 := dense.CanonicalJSON(true)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.Equal(aj, dj) {
			t.Fatalf("%s: adaptive battery watch diverged from dense polling:\n%s\nvs\n%s", cfg.Scenario.Name(), aj, dj)
		}
		if adaptive.Dead != adaptive.Devices {
			t.Fatalf("%s: %d of %d devices died; watch equivalence needs every death exercised",
				cfg.Scenario.Name(), adaptive.Dead, adaptive.Devices)
		}
		for _, r := range adaptive.Results {
			if lived := uint64(r.DiedAt / units.Second); cell.deferred && r.EngineSteps >= lived {
				t.Errorf("%s: device %d executed %d instants in %d s of life; the watch did not defer while its tap drained the battery",
					cfg.Scenario.Name(), r.Index, r.EngineSteps, lived)
			}
		}
	}
}

// hoarderDrain installs the adversarial hoarder on an otherwise idle
// phone, so its grab tap drains the battery until the device dies.
type hoarderDrain struct{}

func (hoarderDrain) Name() string { return "hoarder-drain" }

func (hoarderDrain) Build(d *Device) error {
	if err := installHoarder(d); err != nil {
		return err
	}
	return Compose{Label: "hoarder-drain", Phases: []Phase{
		{Workload: Screen{}, Start: 10 * units.Minute, Duration: 5 * units.Minute, Jitter: 10 * units.Minute},
	}}.Build(d)
}

// TestSnapshotMidNetdWaitFails: a device whose caller is blocked inside
// the cooperative netd pool holds live references — a blocked thread,
// its billing reserve, the pool-crossing prediction over them — that
// the restore path rebuilds from scratch and cannot reattach. Its save
// must fail in netd's section, naming the blocked callers, rather than
// write a record no load accepts. The poller scenario builds its
// pollers with the device, so netd's is the only refusal.
func TestSnapshotMidNetdWaitFails(t *testing.T) {
	cfg := Config{Devices: 1, Seed: 5, Duration: units.Hour, Workers: 1, Scenario: PollerScenario{}}
	var rg rig
	d, _, err := buildDevice(cfg, 0, &rg)
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	for i := 0; i < 600 && serr == nil; i++ {
		d.Kernel.Run(units.Second)
		_, serr = snap.Save(d.codec)
	}
	if serr == nil || !strings.HasPrefix(serr.Error(), "netd: ") || !strings.Contains(serr.Error(), "blocked callers") {
		t.Fatalf("save over 10 simulated minutes of polling: got %v, want netd's blocked-callers refusal", serr)
	}
}

// TestSnapshotQuietNetdRoundTrips: the complement of the refusal above —
// a device between workload phases (no waiter, no live container), with
// closed-form sweep settlement already exercised, must snapshot, restore
// into a fresh rig and evolve byte-identically to the original from
// that point on, through a second active phase.
func TestSnapshotQuietNetdRoundTrips(t *testing.T) {
	cfg := Config{
		Devices:  1,
		Seed:     5,
		Duration: 2 * units.Hour,
		Workers:  1,
		Scenario: Compose{Label: "pollers", Phases: []Phase{
			{Workload: Pollers{Pollers: 2, Interval: 60 * units.Second},
				Start: 0, Duration: 30 * units.Minute},
			{Workload: Pollers{Pollers: 1, Interval: 45 * units.Second},
				Start: 50 * units.Minute, Duration: 30 * units.Minute},
		}},
	}
	var rg rig
	d, _, err := buildDevice(cfg, 0, &rg)
	if err != nil {
		t.Fatal(err)
	}
	// Run through the first phase and into the quiet gap between phases.
	d.Kernel.Run(40 * units.Minute)
	if d.Netd.Stats().SettledSweeps == 0 {
		t.Fatal("scenario exercised no closed-form sweep settlement; the round trip would not cover it")
	}
	blob, serr := snap.Save(d.codec)
	if serr != nil {
		t.Fatal(serr)
	}
	var rg2 rig
	d2, _, err := buildDevice(cfg, 0, &rg2)
	if err != nil {
		t.Fatal(err)
	}
	if rerr := snap.Load(blob, d2.codec); rerr != nil {
		t.Fatal(rerr)
	}
	// Continue both through the second phase to its teardown and beyond.
	d.Kernel.Run(50 * units.Minute)
	d2.Kernel.Run(50 * units.Minute)
	a, aerr := snap.Save(d.codec)
	b, berr := snap.Save(d2.codec)
	if aerr != nil || berr != nil {
		t.Fatalf("post-restore snapshots failed: %v / %v", aerr, berr)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("restored device diverged from original after identical continuation")
	}
}

// TestCheckpointAtAnyBoundary: at the 4 h boundary of this day-mix
// fleet some devices are inside a phase, whose objects a restore cannot
// rebuild. Each device is saved at its first savable instant at or after
// the boundary, and the run killed after that epoch and resumed reports
// the plain run's bytes.
func TestCheckpointAtAnyBoundary(t *testing.T) {
	cfg := Config{Devices: 24, Seed: 9, Duration: 8 * units.Hour, Workers: 2,
		Scenario: DayInTheLife(), CheckpointEvery: 4 * units.Hour}
	if _, _, err := CheckVariants(cfg, VaryResume); err != nil {
		t.Fatal(err)
	}
}
