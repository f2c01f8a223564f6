package perfharness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
)

// TestRegistryShape pins the registry's contract: every scenario
// carries both tiers, names are unique and sorted, and the nightly tier
// runs at least the five end-to-end scenarios the rig promises.
func TestRegistryShape(t *testing.T) {
	scens := Registry()
	if len(scens) < 5 {
		t.Fatalf("registry has %d scenarios, want >= 5", len(scens))
	}
	seen := map[string]bool{}
	prev := ""
	nightly := 0
	for _, sc := range scens {
		if sc.Name == "" || seen[sc.Name] {
			t.Fatalf("scenario name %q empty or duplicated", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Name < prev {
			t.Fatalf("registry not sorted: %q after %q", sc.Name, prev)
		}
		prev = sc.Name
		for _, tier := range []string{TierSmoke, TierNightly} {
			spec, ok := sc.Tiers[tier]
			if !ok {
				t.Fatalf("scenario %q missing %s tier", sc.Name, tier)
			}
			if spec.Budget <= 0 || spec.Run == nil {
				t.Fatalf("scenario %q %s tier has no budget or no run", sc.Name, tier)
			}
		}
		if _, ok := sc.Tiers[TierNightly]; ok {
			nightly++
		}
	}
	if nightly < 5 {
		t.Fatalf("only %d scenarios registered for nightly, want >= 5", nightly)
	}
}

// TestGateDiagnostics exercises the band arithmetic directly: every
// violation message must name the metric, the measured value, the
// baseline, and the band bound it left — the operator should never
// need to open the baselines file to understand a red run.
func TestGateDiagnostics(t *testing.T) {
	base := ScenarioBaseline{
		MD5: "aaaa",
		Metrics: map[string]MetricBaseline{
			MetricDeviceDaysPerSec: {Baseline: 100, Band: Band{MinPct: 25}},
			MetricInstants:         {Baseline: 1000, Band: Band{MaxPct: 105}},
			MetricPeakRSS:          {Baseline: 1 << 20, Band: Band{MaxPct: 300}},
		},
	}

	t.Run("clean", func(t *testing.T) {
		v := gate("s", "smoke", map[string]float64{
			MetricDeviceDaysPerSec: 99,
			MetricInstants:         1049,
			MetricPeakRSS:          3 << 20,
		}, "aaaa", base)
		if len(v) != 0 {
			t.Fatalf("clean run gated: %v", v)
		}
	})

	t.Run("inflated instants", func(t *testing.T) {
		v := gate("s", "smoke", map[string]float64{
			MetricDeviceDaysPerSec: 100,
			MetricInstants:         1051, // ceiling is 1000 * 105% = 1050
			MetricPeakRSS:          1 << 20,
		}, "aaaa", base)
		if len(v) != 1 {
			t.Fatalf("want exactly the instants violation, got %v", v)
		}
		msg := v[0].String()
		for _, needle := range []string{MetricInstants, "1051", "1050", "1000", "105"} {
			if !strings.Contains(msg, needle) {
				t.Fatalf("diagnostic %q does not name %q", msg, needle)
			}
		}
	})

	t.Run("throughput collapse", func(t *testing.T) {
		v := gate("s", "smoke", map[string]float64{
			MetricDeviceDaysPerSec: 24, // floor is 100 * 25% = 25
			MetricInstants:         1000,
			MetricPeakRSS:          1 << 20,
		}, "aaaa", base)
		if len(v) != 1 || !strings.Contains(v[0].String(), MetricDeviceDaysPerSec) {
			t.Fatalf("want the throughput violation, got %v", v)
		}
		if !strings.Contains(v[0].String(), "floor 25") {
			t.Fatalf("diagnostic %q does not name the band floor", v[0])
		}
	})

	t.Run("md5 divergence", func(t *testing.T) {
		v := gate("s", "smoke", map[string]float64{
			MetricDeviceDaysPerSec: 100, MetricInstants: 1000, MetricPeakRSS: 1 << 20,
		}, "bbbb", base)
		if len(v) != 1 || !strings.Contains(v[0].String(), "md5") || !strings.Contains(v[0].String(), "aaaa") {
			t.Fatalf("want the md5 violation naming the baseline, got %v", v)
		}
	})

	t.Run("missing metric", func(t *testing.T) {
		v := gate("s", "smoke", map[string]float64{
			MetricDeviceDaysPerSec: 100, MetricInstants: 1000,
		}, "aaaa", base)
		if len(v) != 1 || !strings.Contains(v[0].String(), MetricPeakRSS) {
			t.Fatalf("want the missing-metric violation, got %v", v)
		}
	})
}

// TestTrendRoundTrip: records append as NDJSON and parse back; records
// with an unknown schema are skipped, not fatal.
func TestTrendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trend.ndjson")
	recs := []Record{
		{Schema: TrendSchema, TS: "2026-01-01T00:00:00Z", Scenario: "a", Tier: TierSmoke, WallMS: 10, BudgetMS: 100, Metrics: map[string]float64{MetricInstants: 5}, MD5: "x", Pass: true},
		{Schema: TrendSchema, TS: "2026-01-02T00:00:00Z", Scenario: "a", Tier: TierSmoke, WallMS: 12, BudgetMS: 100, Pass: false, Violations: []string{"boom"}},
	}
	if err := AppendTrend(path, recs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := AppendTrend(path, recs[1:]); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A future-schema line must be skipped.
	raw = append(raw, []byte(`{"schema":99,"scenario":"future"}`+"\n")...)
	got, err := parseTrend(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Scenario != "a" || got[1].Violations[0] != "boom" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// parseTrend decodes an NDJSON trend file the way its readers must:
// records whose schema this build does not speak are skipped.
func parseTrend(raw []byte) ([]Record, error) {
	var out []Record
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("trend line %d: %w", i+1, err)
		}
		if r.Schema == TrendSchema {
			out = append(out, r)
		}
	}
	return out, nil
}

// TestBaselinesSchemaGuard: a baselines file from a different schema
// version must fail loudly with the regeneration hint, not gate against
// garbage.
func TestBaselinesSchemaGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baselines.json")
	if err := os.WriteFile(path, []byte(`{"schema": 99, "scenarios": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadBaselines(path)
	if err == nil || !strings.Contains(err.Error(), "-update-baseline") {
		t.Fatalf("want schema error with regeneration hint, got %v", err)
	}
}

// TestPeakRSSLabeledWhenResetFails: when the VmHWM reset is refused,
// the trend record must label its peak_rss_bytes as the process-wide
// high-water mark instead of passing it off as the scenario's own.
func TestPeakRSSLabeledWhenResetFails(t *testing.T) {
	if peakRSSBytes() == 0 {
		t.Skip("no /proc/self/status VmHWM on this platform")
	}
	spec := Spec{Budget: time.Minute, Run: checkedRun(fleetCfg("idle", 4, 1, units.Hour), nil)}
	defer func(p string) { clearRefsPath = p }(clearRefsPath)

	clearRefsPath = filepath.Join(t.TempDir(), "missing", "clear_refs")
	rec, metrics, _ := measure("idle-fleet", TierSmoke, spec, time.Now)
	if _, ok := metrics[MetricPeakRSS]; !ok {
		t.Fatalf("run recorded no %s: %+v", MetricPeakRSS, rec)
	}
	if !rec.PeakRSSProcessWide {
		t.Fatalf("reset failed but the record does not label %s process-wide: %+v", MetricPeakRSS, rec)
	}

	// A reset that takes leaves the label off.
	clearRefsPath = filepath.Join(t.TempDir(), "clear_refs")
	if err := os.WriteFile(clearRefsPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if rec, _, _ := measure("idle-fleet", TierSmoke, spec, time.Now); rec.PeakRSSProcessWide {
		t.Fatalf("reset succeeded but the record is labeled process-wide: %+v", rec)
	}
}

// cheapScenario is the fastest registered scenario — the end-to-end
// tests below run it for real.
const cheapScenario = "checkpoint-kill-resume"

// TestUpdateBaselineThenGate is the full operator loop in miniature:
// -update-baseline records a baseline from a live run, and an unchanged
// rerun gates green against it (the md5 is deterministic; the bands
// absorb machine noise).
func TestUpdateBaselineThenGate(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baselines.json")
	trendPath := filepath.Join(dir, "trend.ndjson")
	opts := Options{
		Tier:         TierSmoke,
		Scenarios:    []string{cheapScenario},
		BaselinePath: basePath,
		TrendPath:    trendPath,
		Update:       true,
		Now:          func() time.Time { return time.Unix(1700000000, 0) },
	}
	out, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("update run gated itself: %v", out.Violations)
	}
	if len(out.Records) != 1 || !out.Records[0].BaselineUpdated {
		t.Fatalf("update run did not mark its record: %+v", out.Records)
	}

	opts.Update = false
	out, err = Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("unchanged rerun gated red: %v", out.Violations)
	}
	raw, err := os.ReadFile(trendPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := parseTrend(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !recs[1].Pass || recs[1].BaselineUpdated {
		t.Fatalf("trend after both runs: %+v", recs)
	}
}

// TestGateTripsOnInflatedMetric is the acceptance check for the whole
// rig: against a baseline whose instants_per_device_day was recorded at
// half the real value (equivalently, a change doubled the metric), the
// gate must exit non-zero with a diagnostic naming the metric, the
// baseline, and the band — and the trend record must carry the same
// diagnostics with pass=false.
func TestGateTripsOnInflatedMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baselines.json")
	trendPath := filepath.Join(dir, "trend.ndjson")
	opts := Options{
		Tier:         TierSmoke,
		Scenarios:    []string{cheapScenario},
		BaselinePath: basePath,
		Update:       true,
	}
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}

	// Halve the recorded instants baseline: the next (identical) run now
	// measures 200% of baseline against a 105% ceiling — exactly what a
	// regression doubling the executed-instant count would look like.
	base, err := LoadBaselines(basePath)
	if err != nil {
		t.Fatal(err)
	}
	key := cheapScenario + "/" + TierSmoke
	sb := base.Scenarios[key]
	mb := sb.Metrics[MetricInstants]
	if mb.Baseline <= 0 {
		t.Fatalf("no instants baseline recorded: %+v", sb)
	}
	mb.Baseline /= 2
	sb.Metrics[MetricInstants] = mb
	base.Scenarios[key] = sb
	if err := base.Save(basePath); err != nil {
		t.Fatal(err)
	}

	opts.Update = false
	opts.TrendPath = trendPath
	out, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) == 0 {
		t.Fatal("gate passed a metric at 200% of baseline against a 105% ceiling")
	}
	var hit bool
	for _, v := range out.Violations {
		msg := v.String()
		if v.Metric == MetricInstants &&
			strings.Contains(msg, "baseline") &&
			strings.Contains(msg, "ceiling") &&
			strings.Contains(msg, "105") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("no violation names the metric, baseline, and band: %v", out.Violations)
	}

	raw, err := os.ReadFile(trendPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := parseTrend(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Pass || len(recs[0].Violations) == 0 {
		t.Fatalf("trend record does not carry the failure: %+v", recs)
	}
	if !strings.Contains(recs[0].Violations[0], MetricInstants) {
		t.Fatalf("trend violation does not name the metric: %q", recs[0].Violations[0])
	}
}

// TestUnknownScenarioAndTier: harness-level misuse fails with the
// vocabulary, not silently running nothing.
func TestUnknownScenarioAndTier(t *testing.T) {
	if _, err := Run(Options{Tier: "weekly"}); err == nil || !strings.Contains(err.Error(), "unknown tier") {
		t.Fatalf("want unknown-tier error, got %v", err)
	}
	_, err := Run(Options{Tier: TierSmoke, Scenarios: []string{"nope"}, BaselinePath: "/dev/null"})
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("want unknown-scenario error, got %v", err)
	}
}
