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
// week-in-the-life fleet whose day boundaries are checkpoint-quiet and
// whose battery draws put a death or two inside the horizon.
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
	blob, err := snapshotDevice(d)
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
	blob, err := snapshotDevice(d0)
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

// TestCheckpointRefusesNonQuietBoundary: snapshotting a device mid-
// activity (here: a browse phase straddling the boundary, with live
// taps and threads) must fail loudly at snapshot or restore — never
// produce a device that silently dropped its workload.
func TestCheckpointRefusesNonQuietBoundary(t *testing.T) {
	cfg := Config{
		Devices:  1,
		Seed:     3,
		Duration: time2h(),
		Workers:  1,
		// A browse session spanning the 1 h boundary: at the boundary
		// the device has a live container, thread and funding tap.
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
	blob, serr := snapshotDevice(d)
	if serr != nil {
		return // refused at snapshot time: loud and fine
	}
	var rg2 rig
	d2, _, err := buildDevice(cfg, 0, &rg2)
	if err != nil {
		t.Fatal(err)
	}
	if rerr := snap.Load(blob, d2.codec); rerr == nil {
		t.Fatal("snapshot of a mid-phase device restored without error")
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
// after shorter quiescent stretches.
func TestWatchEquivalence(t *testing.T) {
	cfg := Config{
		Devices:         4, // commuter, two idle, chatty
		Seed:            9,
		Duration:        units.Hour,
		Workers:         2,
		Scenario:        DayInTheLife(),
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
		t.Fatalf("adaptive battery watch diverged from dense polling:\n%s\nvs\n%s", aj, dj)
	}
	if adaptive.Dead != adaptive.Devices {
		t.Fatalf("%d of %d devices died; watch equivalence needs every death exercised", adaptive.Dead, adaptive.Devices)
	}
}

// TestSnapshotMidNetdWaitFails: a device whose caller is blocked inside
// the cooperative netd pool holds live references — a blocked thread,
// its billing reserve, the pool-crossing prediction over them — that
// the restore path rebuilds from scratch and cannot reattach. Such a
// device must refuse to snapshot with a descriptive error rather than
// serialize a state it cannot faithfully revive.
func TestSnapshotMidNetdWaitFails(t *testing.T) {
	cfg := Config{
		Devices:  1,
		Seed:     5,
		Duration: units.Hour,
		Workers:  1,
		Scenario: Compose{Label: "pollers", Phases: []Phase{
			{Workload: Pollers{Pollers: 2, Interval: 60 * units.Second},
				Start: 0, Duration: units.Hour},
		}},
	}
	var rg rig
	d, _, err := buildDevice(cfg, 0, &rg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600 && d.Netd.WaitingThreads() == 0; i++ {
		d.Kernel.Run(units.Second)
	}
	if d.Netd.WaitingThreads() == 0 {
		t.Fatal("no netd waiter appeared within 10 simulated minutes")
	}
	if _, serr := snapshotDevice(d); serr == nil {
		t.Fatal("snapshot of a device with blocked netd callers succeeded")
	} else {
		for _, want := range []string{"not checkpoint-quiet", "blocked in netd"} {
			if !strings.Contains(serr.Error(), want) {
				t.Errorf("snapshot error %q does not mention %q", serr, want)
			}
		}
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
	if n := d.Netd.WaitingThreads(); n > 0 {
		t.Fatalf("device not netd-quiet between phases: %d waiters", n)
	}
	if d.Netd.Stats().SettledSweeps == 0 {
		t.Fatal("scenario exercised no closed-form sweep settlement; the round trip would not cover it")
	}
	blob, serr := snapshotDevice(d)
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
	a, aerr := snapshotDevice(d)
	b, berr := snapshotDevice(d2)
	if aerr != nil || berr != nil {
		t.Fatalf("post-restore snapshots failed: %v / %v", aerr, berr)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("restored device diverged from original after identical continuation")
	}
}
