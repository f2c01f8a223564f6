// Package perfharness is the continuous scenario + perf harness: a
// registry of named end-to-end fleet scenarios (scenarios.go), each
// declaring per-tier wall-time budgets and a baseline with tolerance
// bands, run by cmd/cinder-perfcheck on two cadences — a PR-time smoke
// tier (small populations, embedded equivalence cross-checks) and a
// scheduled nightly tier at full registry scale.
//
// Every scenario run appends one schema-versioned NDJSON record to a
// trend file (bench/trend.ndjson in CI) carrying device-days/s,
// allocs/device-day, executed instants/device-day (fleet-wide and per
// bucket), peak RSS, and the canonical-report md5 — the continuously
// recorded form of the point-in-time BENCH_*.json story. A metric that
// leaves its baseline band, a diverged md5, or a blown budget makes the
// run exit non-zero with a diagnostic naming the metric, the baseline
// and the band; legitimate perf changes rewrite the checked-in
// baselines file with -update-baseline and land it under review.
//
// This package is the single place a future optimization PR registers
// its guarantee: tighten the band (or add a metric) here and the
// nightly rig holds the claim. docs/perf-harness.md is the operator
// guide.
package perfharness

import (
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// TrendSchema versions the NDJSON trend records; BaselineSchema the
// baselines file. Consumers skip records with a schema they don't know.
const (
	TrendSchema    = 1
	BaselineSchema = 1
)

// Canonical metric names. Per-bucket instants metrics are derived as
// MetricInstants + "/" + bucket name.
const (
	MetricDeviceDaysPerSec = "device_days_per_sec"
	MetricAllocsPerDay     = "allocs_per_device_day"
	MetricInstants         = "instants_per_device_day"
	MetricPeakRSS          = "peak_rss_bytes"
)

// Band is a metric's tolerance around its baseline, in percent of the
// baseline value: the gate accepts values in
// [baseline·MinPct/100, baseline·MaxPct/100]. A zero bound means
// unbounded on that side — throughput floors don't cap improvements,
// ceilings don't punish them.
type Band struct {
	MinPct float64 `json:"min_pct,omitempty"`
	MaxPct float64 `json:"max_pct,omitempty"`
}

// defaultBand maps a metric name to the band its kind warrants:
// machine-dependent rates get generous room, deterministic instant
// counts get a tight ceiling.
func defaultBand(metric string) Band {
	switch {
	case metric == MetricDeviceDaysPerSec:
		// Throughput floor at a quarter of baseline: CI machines vary,
		// but a 4x slowdown is a regression on any of them.
		return Band{MinPct: 25}
	case metric == MetricAllocsPerDay:
		// Allocation counts carry runtime noise (pool reuse timing, map
		// growth); +30% is beyond noise.
		return Band{MaxPct: 130}
	case metric == MetricPeakRSS:
		// RSS depends on GC pacing and page reuse; 3x is a leak, not
		// noise.
		return Band{MaxPct: 300}
	case strings.HasPrefix(metric, MetricInstants):
		// Executed instants are deterministic in (seed, scenario); +5%
		// headroom only absorbs a deliberately re-seeded future tweak
		// landing with its own -update-baseline.
		return Band{MaxPct: 105}
	default:
		return Band{}
	}
}

// MetricBaseline is one metric's recorded center and band.
type MetricBaseline struct {
	Baseline float64 `json:"baseline"`
	Band     Band    `json:"band"`
}

// ScenarioBaseline is one (scenario, tier)'s recorded guarantee: the
// canonical-report md5 (exact — the correctness claim) and the banded
// metrics.
type ScenarioBaseline struct {
	MD5     string                    `json:"md5"`
	Metrics map[string]MetricBaseline `json:"metrics"`
}

// Baselines is the checked-in baselines file (bench/baselines.json),
// keyed "scenario/tier".
type Baselines struct {
	Schema    int                         `json:"schema"`
	Generated string                      `json:"generated,omitempty"`
	Scenarios map[string]ScenarioBaseline `json:"scenarios"`
}

// LoadBaselines reads and validates a baselines file.
func LoadBaselines(path string) (Baselines, error) {
	var b Baselines
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("perfharness: bad baselines file %s: %w", path, err)
	}
	if b.Schema != BaselineSchema {
		return b, fmt.Errorf("perfharness: baselines file %s has schema %d, this binary speaks %d — regenerate with -update-baseline",
			path, b.Schema, BaselineSchema)
	}
	return b, nil
}

// Save writes the baselines file with stable key order (it is reviewed
// as a diff).
func (b Baselines) Save(path string) error {
	b.Schema = BaselineSchema
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// Record is one scenario run's NDJSON trend record.
type Record struct {
	Schema   int    `json:"schema"`
	TS       string `json:"ts"` // RFC 3339 UTC
	Scenario string `json:"scenario"`
	Tier     string `json:"tier"`
	WallMS   int64  `json:"wall_ms"`
	BudgetMS int64  `json:"budget_ms"`
	// DeviceDays is the simulated coverage the run's wall clock bought
	// (cross-check variants included — it measures harness throughput).
	DeviceDays float64            `json:"device_days"`
	Metrics    map[string]float64 `json:"metrics"`
	MD5        string             `json:"md5"`
	// PeakRSSProcessWide labels a peak_rss_bytes the per-scenario VmHWM
	// reset could not clear: it is the process's monotone high-water
	// mark over everything run before it, not this scenario's own peak.
	PeakRSSProcessWide bool `json:"peak_rss_process_wide,omitempty"`
	Pass               bool `json:"pass"`
	// Violations carries the gate diagnostics verbatim when Pass is
	// false (an errored scenario records its error the same way).
	Violations []string `json:"violations,omitempty"`
	// BaselineUpdated marks records written by an -update-baseline run.
	BaselineUpdated bool `json:"baseline_updated,omitempty"`
}

// AppendTrend appends records to the NDJSON trend file, one compact
// JSON object per line.
func AppendTrend(path string, recs []Record) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return f.Close()
}

// Violation is one gate failure, formatted for the operator.
type Violation struct {
	Scenario string
	Tier     string
	Metric   string // "" for budget and error violations
	Detail   string
}

func (v Violation) String() string {
	if v.Metric == "" {
		return fmt.Sprintf("%s/%s: %s", v.Scenario, v.Tier, v.Detail)
	}
	return fmt.Sprintf("%s/%s: metric %s %s", v.Scenario, v.Tier, v.Metric, v.Detail)
}

// gate evaluates one run's metrics and md5 against a scenario baseline.
// Every diagnostic names the metric, the measured value, the baseline,
// and the band bound it left.
func gate(scenario, tier string, metrics map[string]float64, md5 string, base ScenarioBaseline) []Violation {
	var out []Violation
	if base.MD5 != "" && md5 != base.MD5 {
		out = append(out, Violation{Scenario: scenario, Tier: tier, Detail: fmt.Sprintf(
			"canonical report md5 %s diverged from baseline %s — the scenario's semantics changed, not just its speed", md5, base.MD5)})
	}
	names := make([]string, 0, len(base.Metrics))
	for name := range base.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mb := base.Metrics[name]
		got, ok := metrics[name]
		if !ok {
			out = append(out, Violation{Scenario: scenario, Tier: tier, Metric: name, Detail: fmt.Sprintf(
				"missing from this run (baseline %g) — a bucket disappeared or the schema drifted", mb.Baseline)})
			continue
		}
		if mb.Band.MinPct > 0 {
			floor := mb.Baseline * mb.Band.MinPct / 100
			if got < floor {
				out = append(out, Violation{Scenario: scenario, Tier: tier, Metric: name, Detail: fmt.Sprintf(
					"= %g below band floor %g (baseline %g, min %g%%)", got, floor, mb.Baseline, mb.Band.MinPct)})
			}
		}
		if mb.Band.MaxPct > 0 {
			ceil := mb.Baseline * mb.Band.MaxPct / 100
			if got > ceil {
				out = append(out, Violation{Scenario: scenario, Tier: tier, Metric: name, Detail: fmt.Sprintf(
					"= %g above band ceiling %g (baseline %g, max %g%%)", got, ceil, mb.Baseline, mb.Band.MaxPct)})
			}
		}
	}
	return out
}

// Options parameterizes a harness run (the flags of cinder-perfcheck).
type Options struct {
	// Tier selects which tier of each scenario runs ("smoke" or
	// "nightly").
	Tier string
	// Scenarios restricts the run to these registry names (empty = every
	// scenario registered for the tier).
	Scenarios []string
	// BaselinePath is the checked-in baselines file.
	BaselinePath string
	// TrendPath, when non-empty, appends one NDJSON record per scenario
	// run.
	TrendPath string
	// Update rewrites the baselines file from this run's measurements
	// instead of gating against it.
	Update bool
	// Logf receives one progress line per scenario (nil discards).
	Logf func(format string, args ...any)
	// Now stamps trend records (nil = time.Now; tests pin it).
	Now func() time.Time
}

// Outcome is a harness run's product: the trend records written and the
// gate violations found (empty on a green run).
type Outcome struct {
	Records    []Record
	Violations []Violation
}

// Run executes the selected scenarios' tier, gates them against the
// baselines (or rewrites the baselines with opts.Update), and appends
// trend records. A non-empty Outcome.Violations means the caller should
// exit non-zero; the error return is for harness-level failures (bad
// tier, unreadable baselines file).
func Run(opts Options) (Outcome, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	if opts.Tier != TierSmoke && opts.Tier != TierNightly {
		return Outcome{}, fmt.Errorf("perfharness: unknown tier %q (have %s|%s)", opts.Tier, TierSmoke, TierNightly)
	}

	scens, err := selectScenarios(opts.Tier, opts.Scenarios)
	if err != nil {
		return Outcome{}, err
	}

	var base Baselines
	if !opts.Update {
		base, err = LoadBaselines(opts.BaselinePath)
		if err != nil {
			return Outcome{}, fmt.Errorf("perfharness: %w (run with -update-baseline to record one)", err)
		}
	}
	updated := Baselines{Schema: BaselineSchema, Scenarios: map[string]ScenarioBaseline{}}
	if opts.Update {
		// Start from the existing file when present so updating a subset
		// of scenarios keeps the others' baselines.
		if prev, err := LoadBaselines(opts.BaselinePath); err == nil {
			updated = prev
			if updated.Scenarios == nil {
				updated.Scenarios = map[string]ScenarioBaseline{}
			}
		}
	}

	var out Outcome
	for _, sc := range scens {
		spec := sc.Tiers[opts.Tier]
		key := sc.Name + "/" + opts.Tier
		logf("perfcheck: %s (budget %v)...", key, spec.Budget)

		rec, metrics, md5 := measure(sc.Name, opts.Tier, spec, now)
		var viols []Violation
		if len(rec.Violations) > 0 {
			// The scenario itself failed (an error or a cross-check
			// divergence): already recorded.
			for _, d := range rec.Violations {
				viols = append(viols, Violation{Scenario: sc.Name, Tier: opts.Tier, Detail: d})
			}
		} else if rec.WallMS > rec.BudgetMS {
			viols = append(viols, Violation{Scenario: sc.Name, Tier: opts.Tier, Detail: fmt.Sprintf(
				"budget blown: wall %v over budget %v", time.Duration(rec.WallMS)*time.Millisecond, spec.Budget)})
		}
		if opts.Update {
			if len(viols) == 0 {
				updated.Scenarios[key] = newBaseline(metrics, md5)
				rec.BaselineUpdated = true
			}
		} else if len(viols) == 0 {
			sb, ok := base.Scenarios[key]
			if !ok {
				viols = append(viols, Violation{Scenario: sc.Name, Tier: opts.Tier, Detail: fmt.Sprintf(
					"no baseline recorded in %s — run cinder-perfcheck -tier %s -scenario %s -update-baseline and commit the diff",
					opts.BaselinePath, opts.Tier, sc.Name)})
			} else {
				viols = append(viols, gate(sc.Name, opts.Tier, metrics, md5, sb)...)
			}
		}
		if len(viols) > 0 {
			rec.Pass = false
			rec.Violations = rec.Violations[:0]
			for _, v := range viols {
				rec.Violations = append(rec.Violations, v.String())
			}
		}
		status := "ok"
		if !rec.Pass {
			status = "FAIL"
		}
		logf("perfcheck: %s %s — wall %v, %.1f device-days (%.1f dd/s)",
			key, status, time.Duration(rec.WallMS)*time.Millisecond, rec.DeviceDays, rec.Metrics[MetricDeviceDaysPerSec])
		out.Records = append(out.Records, rec)
		out.Violations = append(out.Violations, viols...)
	}

	if opts.TrendPath != "" {
		if err := AppendTrend(opts.TrendPath, out.Records); err != nil {
			return out, fmt.Errorf("perfharness: appending trend: %w", err)
		}
	}
	if opts.Update {
		updated.Generated = now().UTC().Format(time.RFC3339)
		if err := updated.Save(opts.BaselinePath); err != nil {
			return out, fmt.Errorf("perfharness: writing baselines: %w", err)
		}
		logf("perfcheck: baselines written to %s (%d scenarios) — review and commit the diff", opts.BaselinePath, len(updated.Scenarios))
	}
	return out, nil
}

// selectScenarios resolves the tier's scenario list, honoring an
// explicit subset.
func selectScenarios(tier string, names []string) ([]Scenario, error) {
	all := Registry()
	if len(names) == 0 {
		var out []Scenario
		for _, sc := range all {
			if _, ok := sc.Tiers[tier]; ok {
				out = append(out, sc)
			}
		}
		return out, nil
	}
	byName := make(map[string]Scenario, len(all))
	have := make([]string, len(all))
	for i, sc := range all {
		byName[sc.Name], have[i] = sc, sc.Name
	}
	var out []Scenario
	for _, n := range names {
		sc, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("perfharness: unknown scenario %q (have %s)", n, strings.Join(have, "|"))
		}
		if _, tok := sc.Tiers[tier]; !tok {
			return nil, fmt.Errorf("perfharness: scenario %q has no %s tier", n, tier)
		}
		out = append(out, sc)
	}
	return out, nil
}

// newBaseline records a run's measurements as the new baseline, with
// each metric's kind-default band.
func newBaseline(metrics map[string]float64, md5 string) ScenarioBaseline {
	sb := ScenarioBaseline{MD5: md5, Metrics: make(map[string]MetricBaseline, len(metrics))}
	for name, v := range metrics {
		sb.Metrics[name] = MetricBaseline{Baseline: v, Band: defaultBand(name)}
	}
	return sb
}

// measure runs one scenario tier under instrumentation: wall clock,
// allocation delta, peak RSS, and the report-derived fleet metrics.
func measure(name, tier string, spec Spec, now func() time.Time) (Record, map[string]float64, string) {
	rec := Record{
		Schema:   TrendSchema,
		TS:       now().UTC().Format(time.RFC3339),
		Scenario: name,
		Tier:     tier,
		BudgetMS: spec.Budget.Milliseconds(),
		Pass:     true,
	}

	rssReset := resetPeakRSS() // without it VmHWM is monotone across scenarios
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()

	rep, extra, err := spec.Run()

	wall := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	rec.WallMS = wall.Milliseconds()

	var canonical []byte
	if err == nil {
		canonical, err = rep.CanonicalJSON(false)
	}
	if err != nil {
		rec.Pass = false
		rec.Violations = []string{fmt.Sprintf("scenario failed: %v", err)}
		return rec, nil, ""
	}
	sum := md5.Sum(canonical)
	rec.MD5 = hex.EncodeToString(sum[:])

	fm := rep.RunMetrics()
	deviceDays := fm.DeviceDays + extra
	rec.DeviceDays = deviceDays

	metrics := map[string]float64{
		MetricInstants: fm.InstantsPerDeviceDay,
	}
	if sec := wall.Seconds(); sec > 0 && deviceDays > 0 {
		metrics[MetricDeviceDaysPerSec] = deviceDays / sec
	}
	if deviceDays > 0 {
		metrics[MetricAllocsPerDay] = float64(msAfter.Mallocs-msBefore.Mallocs) / deviceDays
	}
	if rss := peakRSSBytes(); rss > 0 {
		metrics[MetricPeakRSS] = float64(rss)
		rec.PeakRSSProcessWide = !rssReset
	}
	for bucket, v := range fm.BucketInstantsPerDeviceDay {
		metrics[MetricInstants+"/"+bucket] = v
	}
	rec.Metrics = metrics
	return rec, metrics, rec.MD5
}
