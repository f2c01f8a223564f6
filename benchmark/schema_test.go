package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// decodeExact decodes one JSON object into dst after checking it has
// exactly the given keys.
func decodeExact(t *testing.T, what string, raw json.RawMessage, dst any, keys ...string) {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var got []string
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	sort.Strings(keys)
	if !slices.Equal(got, keys) {
		t.Errorf("%s has keys %v, want exactly %v", what, got, keys)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

type declared struct {
	Name, Unit, Better string
	Bound              float64
}

func TestBenchmarkJSONDeclaresEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []json.RawMessage
		EndToEnd   []json.RawMessage `json:"end_to_end"`
		PerLayer   []json.RawMessage `json:"per_layer"`
	}
	decodeExact(t, "BENCHMARK.json", raw, &top, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")

	if !slices.Equal(top.Command, []string{"bash", "benchmark/run.sh"}) || !slices.Equal(top.Paths, []string{"benchmark"}) {
		t.Errorf("command %q, paths %q", top.Command, top.Paths)
	}
	// The harness makes 4 + 22 runs per workload; with build and
	// start-up they must fit in 3420 s.
	if n := 4 + 22*len(top.Workloads); top.RunSeconds < 1 || top.RunSeconds > 60 || n*(top.RunSeconds+3) > 3420-300 {
		t.Errorf("run_seconds %d: %d runs do not fit the time cap", top.RunSeconds, n)
	}

	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRe.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}

	if len(top.Workloads) < 2 || len(top.Workloads) > 8 || len(top.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code (want 2 to 8)", len(top.Workloads), len(workloads))
	}
	for i, raw := range top.Workloads {
		var d struct{ Name, Why string }
		decodeExact(t, "workload", raw, &d, "name", "why")
		checkName(d.Name)
		if w := workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d declared as %q (%q), code has %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		if d.Why == "" || len(d.Why) > 200 || strings.ContainsAny(d.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", d.Name)
		}
	}

	check := func(kind string, raws []json.RawMessage, code []metric, max int, keys ...string) map[string]declared {
		out := map[string]declared{}
		if len(raws) < 1 || len(raws) > max || len(raws) != len(code) {
			t.Errorf("%d %s metrics declared, %d in code (want 1 to %d)", len(raws), kind, len(code), max)
		}
		for i, raw := range raws {
			var d declared
			decodeExact(t, kind+" metric", raw, &d, keys...)
			checkName(d.Name)
			if !unitRe.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
			}
			if i < len(code) && (code[i].name != d.Name || code[i].unit != d.Unit) {
				t.Errorf("%s metric %d declared as %s (%s), code prints %s (%s)", kind, i, d.Name, d.Unit, code[i].name, code[i].unit)
			}
			out[d.Name] = d
		}
		return out
	}
	e2e := check("end-to-end", top.EndToEnd, endToEnd, 16, "name", "unit", "better", "bound")
	check("per-layer", top.PerLayer, perLayer, 128, "name", "unit", "better")

	for _, d := range e2e {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > e2e["setup_s"].Bound {
			t.Errorf("%s: bound %v must be in (0, 0.25] and at most setup_s's", d.Name, d.Bound)
		}
	}
	if s := e2e["setup_s"]; s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s declared as %+v", s)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, m := range perLayer {
		if len(m.moves) == 0 || len(m.on) == 0 {
			t.Errorf("%s: no end-to-end metric or workload it should move", m.name)
		}
		for _, e := range m.moves {
			if _, ok := e2e[e]; !ok {
				t.Errorf("%s moves undeclared end-to-end metric %q", m.name, e)
			}
		}
		for _, w := range m.on {
			if !slices.Contains(names, w) {
				t.Errorf("%s shows on unknown workload %q", m.name, w)
			}
		}
	}
}

// TestPrintedMetricsAreDeclared checks that a run prints exactly the
// declared metrics, each with its unit, traced and untraced.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	out := repOut{
		MD5: "x", SetupS: 0.01, TimedS: 1, DeviceDays: 10, Ops: 3,
		Layer: map[string]float64{"sim.instants_per_dd": 5},
	}
	traced := out
	traced.Spans = map[string][]float64{"fleet.build": {1, 2, 3}}
	traced.CPU = map[string]float64{"core": 1, "runtime": 0.5, "unattributed": 0.1}
	kids := []child{
		{idx: 0, out: out, wallS: 1, cpuS: 2, rssMB: 10, speed: 1},
		{idx: 0, traced: true, out: traced, wallS: 1, cpuS: 2, rssMB: 10, speed: 1},
	}
	for _, tc := range []struct {
		trace bool
		want  []metric
	}{{false, endToEnd}, {true, perLayer}} {
		res := summarize(workloads[0], 2, tc.trace, kids, io.Discard)
		if !res.Correct || res.Attempted != 6 || res.Failed != 0 {
			t.Errorf("trace %v: correct %v, %d attempted, %d failed", tc.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("trace %v: printed %d metrics, declared %d", tc.trace, len(res.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("trace %v: %s printed as %+v (present %v), want unit %s", tc.trace, m.name, v, ok, m.unit)
			}
		}
	}
}

func TestSummarizeFailsMismatchedRepetitions(t *testing.T) {
	ok := repOut{MD5: "a", SetupS: 0.01, TimedS: 1, DeviceDays: 10, Ops: 3}
	bad := ok
	bad.MD5 = "b"
	kids := []child{
		{idx: 0, out: ok, speed: 1},
		{idx: 0, traced: true, out: bad, speed: 1},
		{idx: 1, err: os.ErrDeadlineExceeded},
	}
	res := summarize(workloads[0], 2, true, kids, io.Discard)
	if res.Correct {
		t.Error("a traced md5 differing from its untraced twin passed")
	}
	if want := 3 + 3 + workloads[0].ops(); res.Attempted != want || res.Failed != 3+workloads[0].ops() {
		t.Errorf("%d attempted, %d failed; want %d attempted, the mismatched and crashed repetitions failed", res.Attempted, res.Failed, want)
	}
}

func TestQuartilesAndTail(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, m, q3 := quartiles(xs); q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v", q1, m, q3)
	}
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if v, label := tail(hundred); v != 90 || label != "p90" {
		t.Errorf("tail of 1..100 = %v (%s), want 90 (p90): p99 has one sample beyond it", v, label)
	}
	if v, label := tail(xs); v != 10 || label != "max" {
		t.Errorf("tail of ten samples = %v (%s), want the maximum", v, label)
	}
}
