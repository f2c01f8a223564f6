package perfharness

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/coord"
	"repro/internal/fleet"
	"repro/internal/units"
)

// Tier names. Smoke is the PR-time tier: small populations with the
// equivalence cross-checks (worker counts, shard/merge, the reference
// configuration) that used to live as one-off ci.yml steps folded in.
// Nightly is the full-registry-scale tier the scheduled workflow runs.
const (
	TierSmoke   = "smoke"
	TierNightly = "nightly"
)

// Sample is what a scenario run hands back for metric extraction: the
// (merged) report, the md5 of its canonical JSON, and any extra
// simulated coverage the scenario's cross-check variants burned (so
// device_days_per_sec reflects the harness's whole wall clock).
type Sample struct {
	Report          fleet.Report
	MD5             string
	ExtraDeviceDays float64
}

// Spec is one tier of one scenario: a wall-time budget and the run
// itself. Run returns an error when the scenario's own invariants break
// (an equivalence cross-check diverging is an error, not a band
// violation).
type Spec struct {
	Budget time.Duration
	Run    func() (Sample, error)
}

// Scenario is a named registry entry with per-tier specs.
type Scenario struct {
	Name  string
	About string
	Tiers map[string]Spec
}

// Registry returns the scenario registry in stable name order. This is
// the single place a future perf PR registers its guarantee: add a
// scenario (or tighten a band via -update-baseline) and both CI tiers
// hold it from then on.
func Registry() []Scenario {
	scens := []Scenario{
		{
			Name:  "dayinthelife",
			About: "idle/commuter/chatty daily mix weighted 5/3/2; smoke folds in the worker-count and reference equivalence checks",
			Tiers: map[string]Spec{
				TierSmoke:   {Budget: time.Minute, Run: runDaySmoke},
				TierNightly: {Budget: 3 * time.Minute, Run: plainRun(fleetCfg("dayinthelife", 1000, 1, 24*units.Hour))},
			},
		},
		{
			Name:  "weekinthelife",
			About: "1k-device heterogeneous week (per-device batteries, weekday/weekend days, no charger); smoke folds in the shard/merge equivalence check",
			Tiers: map[string]Spec{
				TierSmoke:   {Budget: time.Minute, Run: runWeekSmoke},
				TierNightly: {Budget: 5 * time.Minute, Run: plainRun(fleetCfg("weekinthelife", 1000, 1, 7*24*units.Hour))},
			},
		},
		{
			Name:  "monthinthelife",
			About: "30-day horizon with overnight charges; smoke folds in the reference equivalence check across one charge window",
			Tiers: map[string]Spec{
				TierSmoke:   {Budget: time.Minute, Run: runMonthSmoke},
				TierNightly: {Budget: 5 * time.Minute, Run: plainRun(fleetCfg("monthinthelife", 150, 11, 30*24*units.Hour))},
			},
		},
		{
			Name:  "adversarial",
			About: "§5.2.2 hoarding cohorts (victim, lax hoarder, strict hoarder) at full population",
			Tiers: map[string]Spec{
				TierSmoke:   {Budget: time.Minute, Run: plainRun(fleetCfg("adversarial", 64, 1, 6*units.Hour))},
				TierNightly: {Budget: 10 * time.Minute, Run: plainRun(fleetCfg("adversarial", 1000, 1, 24*units.Hour))},
			},
		},
		{
			Name:  "cluster",
			About: "4-shard job over 2 HTTP-loopback runners, merged report byte-checked against the single-process run",
			Tiers: map[string]Spec{
				TierSmoke:   {Budget: time.Minute, Run: clusterRun(fleetCfg("weekinthelife", 64, 11, 48*units.Hour))},
				TierNightly: {Budget: 5 * time.Minute, Run: clusterRun(fleetCfg("weekinthelife", 512, 11, 7*24*units.Hour))},
			},
		},
		{
			Name:  "idle-fleet",
			About: "idle devices that run no workload and never draw from their RNG: the per-device fixed cost of a recycled rig",
			Tiers: map[string]Spec{
				TierSmoke:   {Budget: time.Minute, Run: plainRun(fleetCfg("idle", 20_000, 1, 7*24*units.Hour))},
				TierNightly: {Budget: 5 * time.Minute, Run: plainRun(fleetCfg("idle", 200_000, 1, 7*24*units.Hour))},
			},
		},
		{
			Name:  "checkpoint-kill-resume",
			About: "run killed right after its first epoch checkpoint, resumed, byte-checked against the uninterrupted run",
			Tiers: map[string]Spec{
				TierSmoke:   {Budget: time.Minute, Run: killResumeRun(fleetCfg("weekinthelife", 32, 11, 48*units.Hour))},
				TierNightly: {Budget: 5 * time.Minute, Run: killResumeRun(fleetCfg("weekinthelife", 256, 11, 7*24*units.Hour))},
			},
		},
	}
	sort.Slice(scens, func(i, j int) bool { return scens[i].Name < scens[j].Name })
	return scens
}

// Names lists the registry's scenario names in order.
func Names() []string {
	var out []string
	for _, sc := range Registry() {
		out = append(out, sc.Name)
	}
	return out
}

// fleetCfg builds the registry's standard fleet config: named scenario,
// fixed seed, two workers (deterministic across counts — two exercises
// the reduction ordering without oversubscribing CI's cores).
func fleetCfg(scenario string, devices int, seed int64, horizon units.Time) fleet.Config {
	return fleet.Config{
		Devices:  devices,
		Seed:     seed,
		Duration: horizon,
		Workers:  2,
		Scenario: fleet.Scenarios()[scenario],
	}
}

func canonicalMD5(rep fleet.Report, perDevice bool) (string, error) {
	b, err := rep.CanonicalJSON(perDevice)
	if err != nil {
		return "", err
	}
	sum := md5.Sum(b)
	return hex.EncodeToString(sum[:]), nil
}

func deviceDays(cfg fleet.Config) float64 {
	return cfg.Duration.Seconds() / 86400 * float64(cfg.Devices)
}

// plainRun is the simple scenario shape: one fleet.Run of cfg.
func plainRun(cfg fleet.Config) func() (Sample, error) {
	return func() (Sample, error) {
		rep, err := fleet.Run(cfg)
		if err != nil {
			return Sample{}, err
		}
		sum, err := canonicalMD5(rep, false)
		if err != nil {
			return Sample{}, err
		}
		return Sample{Report: rep, MD5: sum}, nil
	}
}

// sameReports runs every config and fails unless their per-device
// reports match the first's byte for byte — full JSON (engine
// diagnostics included: right for worker-count variants, which are
// exactly deterministic) or, with canonical set, canonical JSON
// (energy-shaped fields only: right for the reference configuration,
// whose executed-instant diagnostics legitimately differ). It returns
// the first report and the variants' simulated coverage for throughput
// accounting.
func sameReports(label string, canonical bool, cfgs ...fleet.Config) (fleet.Report, float64, error) {
	var first fleet.Report
	var want []byte
	variantDays := 0.0
	for i, cfg := range cfgs {
		cfg.KeepResults = true
		rep, err := fleet.Run(cfg)
		if err != nil {
			return first, 0, fmt.Errorf("%s: %w", label, err)
		}
		got, err := rep.JSON(true)
		if canonical {
			got, err = rep.CanonicalJSON(true)
		}
		if err != nil {
			return first, 0, err
		}
		if i == 0 {
			first, want = rep, got
			continue
		}
		if string(got) != string(want) {
			return first, 0, fmt.Errorf("equivalence check %q diverged: variant report differs from the run it checks", label)
		}
		variantDays += deviceDays(cfg)
	}
	return first, variantDays, nil
}

// referenceCheck runs cfg in production and under the reference
// configuration, whose canonical reports must match, and returns both
// runs' simulated coverage. The reference walks every tick, so cfg must
// be a window it can walk in seconds.
func referenceCheck(cfg fleet.Config) (float64, error) {
	ref := cfg
	ref.Reference = true
	_, dd, err := sameReports("reference", true, cfg, ref)
	return dd + deviceDays(cfg), err
}

// runDaySmoke is the PR-tier day scenario: the main run plus the
// worker-count equivalence checks and a reference check on an 8-device
// hour of the same mix.
func runDaySmoke() (Sample, error) {
	cfg := fleetCfg("dayinthelife", 48, 1, 4*units.Hour)
	one, four := cfg, cfg
	one.Workers, four.Workers = 1, 4
	rep, extra, err := sameReports("workers", false, cfg, one, four)
	if err != nil {
		return Sample{}, err
	}
	dd, err := referenceCheck(fleetCfg("dayinthelife", 8, 1, units.Hour))
	if err != nil {
		return Sample{}, err
	}
	extra += dd
	sum, err := canonicalMD5(rep, false)
	if err != nil {
		return Sample{}, err
	}
	return Sample{Report: rep, MD5: sum, ExtraDeviceDays: extra}, nil
}

// runWeekSmoke folds the shard/merge equivalence check into the week
// scenario: two shard partials merged through the Job machinery must
// reproduce the single-process report exactly, engine diagnostics
// included.
func runWeekSmoke() (Sample, error) {
	cfg := fleetCfg("weekinthelife", 64, 11, 48*units.Hour)
	ref, err := fleet.Run(cfg)
	if err != nil {
		return Sample{}, err
	}
	want, err := ref.JSON(false)
	if err != nil {
		return Sample{}, err
	}

	job, err := fleet.NewJob(cfg, 2)
	if err != nil {
		return Sample{}, err
	}
	var parts []*fleet.Partial
	for s := 0; s < 2; s++ {
		scfg, err := job.ShardConfig(s)
		if err != nil {
			return Sample{}, err
		}
		scfg.Workers = cfg.Workers
		p, err := fleet.RunShard(scfg)
		if err != nil {
			return Sample{}, fmt.Errorf("shard %d: %w", s, err)
		}
		parts = append(parts, p)
	}
	merged, err := job.Merge(parts)
	if err != nil {
		return Sample{}, err
	}
	got, err := merged.JSON(false)
	if err != nil {
		return Sample{}, err
	}
	if string(got) != string(want) {
		return Sample{}, errors.New(`equivalence check "shard-merge" diverged: merged partials differ from the single-process report`)
	}

	sum, err := canonicalMD5(ref, false)
	if err != nil {
		return Sample{}, err
	}
	return Sample{Report: ref, MD5: sum, ExtraDeviceDays: deviceDays(cfg)}, nil
}

// runMonthSmoke folds the charger-settlement equivalence check into the
// month scenario: the 26 h horizon crosses an overnight charge, and on
// two of its devices (a laptop and a phone) closed-form charging must
// reproduce the reference, which credits every quantum, exactly.
func runMonthSmoke() (Sample, error) {
	cfg := fleetCfg("monthinthelife", 16, 11, 26*units.Hour)
	rep, err := fleet.Run(cfg)
	if err != nil {
		return Sample{}, err
	}
	extra, err := referenceCheck(fleetCfg("monthinthelife", 2, 11, 26*units.Hour))
	if err != nil {
		return Sample{}, err
	}
	sum, err := canonicalMD5(rep, false)
	if err != nil {
		return Sample{}, err
	}
	return Sample{Report: rep, MD5: sum, ExtraDeviceDays: extra}, nil
}

// clusterRun drives cfg as a 4-shard job over two HTTP-loopback runners
// (coord.RunHTTP: every claim, heartbeat and partial crosses a real TCP
// connection) and byte-checks the merged report against the
// single-process run.
func clusterRun(cfg fleet.Config) func() (Sample, error) {
	return func() (Sample, error) {
		ref, err := fleet.Run(cfg)
		if err != nil {
			return Sample{}, err
		}
		want, err := ref.JSON(false)
		if err != nil {
			return Sample{}, err
		}

		job, err := fleet.NewJob(cfg, 4)
		if err != nil {
			return Sample{}, err
		}
		merged, err := coord.RunHTTP(context.Background(), job, coord.LocalOptions{
			Runners: 2,
			Workers: cfg.Workers,
		})
		if err != nil {
			return Sample{}, fmt.Errorf("cluster run: %w", err)
		}
		got, err := merged.JSON(false)
		if err != nil {
			return Sample{}, err
		}
		if string(got) != string(want) {
			return Sample{}, errors.New(`equivalence check "cluster" diverged: HTTP-loopback merged report differs from the single-process run`)
		}
		sum, err := canonicalMD5(merged, false)
		if err != nil {
			return Sample{}, err
		}
		return Sample{Report: merged, MD5: sum, ExtraDeviceDays: deviceDays(cfg)}, nil
	}
}

// errKilled is the kill-resume scenario's deliberate mid-run abort.
var errKilled = errors.New("perfharness: deliberate kill after first checkpoint")

// killResumeRun checkpoints cfg at day boundaries, aborts the run the
// instant the first epoch file is published (the Progress hook is the
// in-process stand-in for kill -9 — the process-level variant lives in
// the nightly workflow), resumes from disk, and byte-checks the resumed
// report against an uninterrupted run.
func killResumeRun(cfg fleet.Config) func() (Sample, error) {
	return func() (Sample, error) {
		dir, err := os.MkdirTemp("", "perfharness-ckpt-")
		if err != nil {
			return Sample{}, err
		}
		defer os.RemoveAll(dir)

		plain, err := fleet.Run(cfg)
		if err != nil {
			return Sample{}, err
		}
		want, err := plain.CanonicalJSON(true)
		if err != nil {
			return Sample{}, err
		}

		kcfg := cfg
		kcfg.CheckpointDir = dir
		kcfg.Progress = func(p fleet.Progress) error {
			if p.Checkpointed {
				return errKilled
			}
			return nil
		}
		if _, err := fleet.Run(kcfg); !errors.Is(err, errKilled) {
			return Sample{}, fmt.Errorf("kill-resume: expected the deliberate abort, got %v", err)
		}

		rcfg := cfg
		rcfg.CheckpointDir = dir
		rcfg.Resume = true
		resumed, err := fleet.Run(rcfg)
		if err != nil {
			return Sample{}, fmt.Errorf("resume: %w", err)
		}
		got, err := resumed.CanonicalJSON(true)
		if err != nil {
			return Sample{}, err
		}
		if string(got) != string(want) {
			return Sample{}, errors.New(`equivalence check "kill-resume" diverged: resumed report differs from the uninterrupted run`)
		}
		sum, err := canonicalMD5(resumed, false)
		if err != nil {
			return Sample{}, err
		}
		// Extra coverage: the uninterrupted reference plus roughly one
		// epoch of the killed run (not precisely known; count the
		// reference only — conservative).
		return Sample{Report: resumed, MD5: sum, ExtraDeviceDays: deviceDays(cfg)}, nil
	}
}
