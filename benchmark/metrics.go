package main

import (
	"fmt"
	"math"
	"sort"
)

// metric declares one printed metric. BENCHMARK.json at the repository
// root declares the same names and units together with each metric's
// direction and, for end-to-end metrics, its regression bound; the
// schema test keeps the two in step.
type metric struct {
	name, unit string
	// moves and on are the per-layer map: the end-to-end metrics a
	// change to this layer should move, and the workloads it shows on.
	moves, on []string
}

// endToEnd are measured on untraced repetitions only.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "device_days_per_s", unit: "dd/s"},
	{name: "cpu_s_per_kdd", unit: "s/kdd"},
	{name: "peak_rss_mb", unit: "MiB"},
}

var (
	fleetWorkloads = []string{"day-mix", "hoarders", "month-ckpt"}
	allWorkloads   = []string{"day-mix", "hoarders", "month-ckpt", "cluster-idle"}
	cluster        = []string{"cluster-idle"}
	month          = []string{"month-ckpt"}
	throughput     = []string{"device_days_per_s"}
)

// spanMetrics expands a call span into its median, tail and
// per-repetition count.
func spanMetrics(span string, moves, on []string) []metric {
	return []metric{
		{name: span + "_p50_ms", unit: "ms", moves: moves, on: on},
		{name: span + "_tail_ms", unit: "ms", moves: moves, on: on},
		{name: span + "_n", unit: "count", moves: moves, on: on},
	}
}

// cpuLayers are the profile buckets reported as cpu.<layer>, in print
// order. Layers are the repository's module names, with internal/snap,
// fleet/checkpoint.go and every snapshot.go merged into "checkpoint",
// and the benchmark's own frames in "bench".
var cpuLayers = []struct {
	name      string
	moves, on []string
}{
	{"sim", []string{"device_days_per_s", "cpu_s_per_kdd"}, []string{"day-mix", "month-ckpt", "cluster-idle"}},
	{"core", throughput, []string{"hoarders", "day-mix"}},
	{"netd", throughput, []string{"day-mix"}},
	{"radio", throughput, []string{"day-mix"}},
	{"kernel", throughput, []string{"month-ckpt", "day-mix"}},
	{"sched", throughput, []string{"month-ckpt", "day-mix"}},
	{"msm", throughput, []string{"month-ckpt", "day-mix"}},
	{"checkpoint", []string{"device_days_per_s", "peak_rss_mb"}, month},
	{"coord", throughput, cluster},
	{"delivery", throughput, cluster},
	{"fleet", []string{"cpu_s_per_kdd"}, allWorkloads},
	{"apps", []string{"cpu_s_per_kdd"}, allWorkloads},
	{"label", []string{"cpu_s_per_kdd"}, allWorkloads},
	{"kobj", []string{"cpu_s_per_kdd"}, allWorkloads},
	{"units", []string{"cpu_s_per_kdd"}, allWorkloads},
	{"runtime", []string{"peak_rss_mb", "cpu_s_per_kdd"}, allWorkloads},
	{"bench", []string{"cpu_s_per_kdd"}, allWorkloads},
	{"other_repo", []string{"cpu_s_per_kdd"}, allWorkloads},
}

// Call spans the traced repetitions record, by the layer whose public
// API the span wraps.
var callSpans = []struct {
	name      string
	moves, on []string
}{
	{"fleet.build", []string{"device_days_per_s", "setup_s"}, fleetWorkloads},
	{"fleet.epoch", []string{"device_days_per_s", "peak_rss_mb"}, month},
	{"coord.claim", throughput, cluster},
	{"coord.complete", throughput, cluster},
	{"delivery.claim", throughput, cluster},
	{"delivery.complete", throughput, cluster},
	{"runner.shard", throughput, cluster},
}

// perLayer is every metric a traced run prints.
var perLayer = func() []metric {
	ms := []metric{
		{name: "sim.instants_per_dd", unit: "count/dd", moves: []string{"device_days_per_s", "cpu_s_per_kdd"}, on: []string{"day-mix", "month-ckpt", "cluster-idle"}},
		{name: "core.flow_walks_per_dd", unit: "count/dd", moves: throughput, on: []string{"hoarders", "day-mix"}},
		{name: "core.settled_batches_per_dd", unit: "count/dd", moves: throughput, on: []string{"hoarders", "day-mix"}},
		{name: "core.settled_frac", unit: "ratio", moves: throughput, on: []string{"hoarders", "day-mix"}},
		{name: "netd.settled_sweeps_per_dd", unit: "count/dd", moves: throughput, on: []string{"day-mix"}},
		{name: "kernel.settled_charges_per_dd", unit: "count/dd", moves: throughput, on: []string{"month-ckpt", "day-mix"}},
		{name: "checkpoint.bytes_per_device", unit: "B", moves: []string{"device_days_per_s", "peak_rss_mb"}, on: month},
		{name: "checkpoint.epochs", unit: "count", moves: throughput, on: month},
		{name: "coord.leases", unit: "count", moves: throughput, on: cluster},
		{name: "runtime.allocs_per_dd", unit: "count/dd", moves: []string{"peak_rss_mb", "cpu_s_per_kdd"}, on: allWorkloads},
		{name: "runtime.alloc_bytes_per_dd", unit: "B/dd", moves: []string{"peak_rss_mb", "cpu_s_per_kdd"}, on: allWorkloads},
		{name: "runtime.gc_cycles", unit: "count", moves: []string{"peak_rss_mb", "cpu_s_per_kdd"}, on: allWorkloads},
		{name: "fleet.resume_ms", unit: "ms", moves: throughput, on: month},
		{name: "fleet.merge_ms", unit: "ms", moves: throughput, on: cluster},
		{name: "fleet.report_json_ms", unit: "ms", moves: throughput, on: allWorkloads},
		{name: "delivery.self_s", unit: "s", moves: throughput, on: cluster},
	}
	for _, s := range callSpans {
		ms = append(ms, spanMetrics(s.name, s.moves, s.on)...)
	}
	for _, l := range cpuLayers {
		ms = append(ms, metric{name: "cpu." + l.name, unit: "s/kdd", moves: l.moves, on: l.on})
	}
	return append(ms, metric{name: "cpu.attributed_frac", unit: "ratio", moves: []string{"cpu_s_per_kdd"}, on: allWorkloads})
}()

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method, the default of Python's
// statistics.quantiles(xs, n=4). Fewer than two values repeat the one
// value (or give zeros for none).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tail returns the highest of p50, p90, p99 and p99.9 that has at least
// ten samples beyond it (nearest rank), with its label; below twenty
// samples no percentile qualifies and it returns the maximum.
func tail(xs []float64) (float64, string) {
	if len(xs) == 0 {
		return 0, "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 90, 50} {
		rank := int(math.Ceil(p / 100 * float64(len(s))))
		if len(s)-rank >= 10 {
			return s[rank-1], fmt.Sprintf("p%g", p)
		}
	}
	return s[len(s)-1], "max"
}
