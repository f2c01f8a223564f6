package perfharness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/coord"
	"repro/internal/fleet"
	"repro/internal/units"
)

// Tier names. Smoke is the PR-time tier: small populations, several
// checked under fleet.CheckVariants' execution variants (worker
// counts, shard/merge, kill and resume, the reference configuration).
// Nightly is the full-registry-scale tier the scheduled workflow runs.
const (
	TierSmoke   = "smoke"
	TierNightly = "nightly"
)

// Spec is one tier of one scenario: a wall-time budget and the run
// itself. Run has fleet.CheckVariants' shape: it returns the report the
// tier samples (the gate reads its metrics and the md5 of its canonical
// JSON) and the extra device-days its checks simulated, so
// device_days_per_sec reflects the harness's whole wall clock. It
// returns an error when the scenario's own invariants break (an
// equivalence cross-check diverging is an error, not a band violation).
type Spec struct {
	Budget time.Duration
	Run    func() (fleet.Report, float64, error)
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
			About: "idle/commuter/chatty daily mix weighted 5/3/2; smoke runs it under the workers variant and an 8-device hour under the reference variant",
			Tiers: map[string]Spec{
				TierSmoke: {Budget: time.Minute, Run: checkedRun(fleetCfg("dayinthelife", 48, 1, 4*units.Hour),
					[]fleet.Variant{fleet.VaryWorkers}, fleetCfg("dayinthelife", 8, 1, units.Hour))},
				TierNightly: {Budget: 3 * time.Minute, Run: checkedRun(fleetCfg("dayinthelife", 1000, 1, 24*units.Hour), nil)},
			},
		},
		{
			Name:  "weekinthelife",
			About: "1k-device heterogeneous week (per-device batteries, weekday/weekend days, no charger); smoke runs it under the shards variant",
			Tiers: map[string]Spec{
				TierSmoke:   {Budget: time.Minute, Run: checkedRun(fleetCfg("weekinthelife", 64, 11, 48*units.Hour), []fleet.Variant{fleet.VaryShards})},
				TierNightly: {Budget: 5 * time.Minute, Run: checkedRun(fleetCfg("weekinthelife", 1000, 1, 7*24*units.Hour), nil)},
			},
		},
		{
			Name:  "monthinthelife",
			About: "30-day horizon with overnight charges; smoke runs two devices across one charge window under the reference variant",
			Tiers: map[string]Spec{
				TierSmoke: {Budget: time.Minute, Run: checkedRun(fleetCfg("monthinthelife", 16, 11, 26*units.Hour),
					nil, fleetCfg("monthinthelife", 2, 11, 26*units.Hour))},
				TierNightly: {Budget: 5 * time.Minute, Run: checkedRun(fleetCfg("monthinthelife", 150, 11, 30*24*units.Hour), nil)},
			},
		},
		{
			Name:  "adversarial",
			About: "§5.2.2 hoarding cohorts (victim, lax hoarder, strict hoarder) at full population",
			Tiers: map[string]Spec{
				TierSmoke:   {Budget: time.Minute, Run: checkedRun(fleetCfg("adversarial", 64, 1, 6*units.Hour), nil)},
				TierNightly: {Budget: 10 * time.Minute, Run: checkedRun(fleetCfg("adversarial", 1000, 1, 24*units.Hour), nil)},
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
				TierSmoke:   {Budget: time.Minute, Run: checkedRun(fleetCfg("idle", 20_000, 1, 7*24*units.Hour), nil)},
				TierNightly: {Budget: 5 * time.Minute, Run: checkedRun(fleetCfg("idle", 200_000, 1, 7*24*units.Hour), nil)},
			},
		},
		{
			Name:  "checkpoint-kill-resume",
			About: "the resume variant: run killed right after its first epoch checkpoint, resumed, byte-checked against the uninterrupted run",
			Tiers: map[string]Spec{
				TierSmoke:   {Budget: time.Minute, Run: checkedRun(fleetCfg("weekinthelife", 32, 11, 48*units.Hour), []fleet.Variant{fleet.VaryResume})},
				TierNightly: {Budget: 5 * time.Minute, Run: checkedRun(fleetCfg("weekinthelife", 256, 11, 7*24*units.Hour), []fleet.Variant{fleet.VaryResume})},
			},
		},
	}
	sort.Slice(scens, func(i, j int) bool { return scens[i].Name < scens[j].Name })
	return scens
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

// checkedRun runs cfg through fleet.CheckVariants under variants (with
// none, a single fleet.Run of cfg), then checks each reference window
// under fleet.VaryReference. The sample is cfg's plain run; every other
// run counts as extra coverage.
func checkedRun(cfg fleet.Config, variants []fleet.Variant, windows ...fleet.Config) func() (fleet.Report, float64, error) {
	return func() (fleet.Report, float64, error) {
		rep, extra, err := fleet.CheckVariants(cfg, variants...)
		if err != nil {
			return rep, 0, err
		}
		for _, w := range windows {
			wrep, dd, err := fleet.CheckVariants(w, fleet.VaryReference)
			if err != nil {
				return rep, 0, err
			}
			extra += dd + wrep.RunMetrics().DeviceDays
		}
		return rep, extra, nil
	}
}

// clusterRun drives cfg as a 4-shard job over two HTTP-loopback runners
// (coord.RunHTTP: every claim, heartbeat and partial crosses a real TCP
// connection) and byte-checks the merged report against the
// single-process run.
func clusterRun(cfg fleet.Config) func() (fleet.Report, float64, error) {
	return func() (fleet.Report, float64, error) {
		ref, err := fleet.Run(cfg)
		if err != nil {
			return fleet.Report{}, 0, err
		}
		job, err := fleet.NewJob(cfg, 4)
		if err != nil {
			return fleet.Report{}, 0, err
		}
		merged, err := coord.RunHTTP(context.Background(), job, coord.LocalOptions{Runners: 2, Workers: cfg.Workers})
		if err != nil {
			return fleet.Report{}, 0, fmt.Errorf("cluster run: %w", err)
		}
		want, err1 := ref.JSON(false)
		got, err2 := merged.JSON(false)
		if err := errors.Join(err1, err2); err != nil {
			return fleet.Report{}, 0, err
		}
		if !bytes.Equal(got, want) {
			return fleet.Report{}, 0, errors.New(`equivalence check "cluster" diverged: HTTP-loopback merged report differs from the single-process run`)
		}
		return merged, ref.RunMetrics().DeviceDays, nil
	}
}
