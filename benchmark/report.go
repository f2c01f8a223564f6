package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reduces a run's repetitions to its metrics. Every time is
// converted to the reference host speed: divided by the repetition's
// speed factor (see calibrate), which takes out most of the host's
// drift under other tenants. Counts are reported as measured.

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// at converts a time measured in repetition c to the reference speed.
func (c child) at(t float64) float64 { return t / c.speed }

// summarize checks the repetitions' outputs and reduces them to the
// run's metrics: end-to-end from untraced repetitions, per-layer from
// both kinds when traced.
func summarize(w *workload, seed int64, trace bool, kids []child, log io.Writer) result {
	res := result{Metrics: map[string]value{}}
	untracedMD5 := map[int]string{}
	for _, c := range kids {
		if c.err == nil && !c.traced {
			untracedMD5[c.idx] = c.out.MD5
		}
	}
	var problems []string
	for i := range kids {
		c := &kids[i]
		if c.err != nil {
			problems = append(problems, fmt.Sprintf("rep %d failed: %v", c.idx, c.err))
			res.Attempted += w.ops()
			res.Failed += w.ops()
			continue
		}
		for _, msg := range c.out.Checks {
			problems = append(problems, fmt.Sprintf("rep %d: %s", c.idx, msg))
		}
		switch want, ok := untracedMD5[c.idx]; {
		case c.traced && ok && c.out.MD5 != want:
			c.out.Checks = append(c.out.Checks, "md5")
			problems = append(problems, fmt.Sprintf("rep %d: traced md5 %s differs from untraced %s", c.idx, c.out.MD5, want))
		case seed == pinSeed && c.idx == 0 && c.out.MD5 != w.pin:
			c.out.Checks = append(c.out.Checks, "md5")
			problems = append(problems, fmt.Sprintf("rep 0: md5 %s differs from the pinned %s", c.out.MD5, w.pin))
		}
		res.Attempted += c.out.Ops
		if len(c.out.Checks) > 0 {
			res.Failed += c.out.Ops
		} else {
			res.Failed += c.out.FailedOps
		}
	}
	if seed == pinSeed {
		fmt.Fprintf(log, "pin: repetition 0 checked against %s\n", w.pin)
	} else {
		fmt.Fprintf(log, "pin: skipped (seed %d is not %d); determinism and equality checks still run\n", seed, pinSeed)
	}
	for _, p := range problems {
		fmt.Fprintln(log, "CHECK FAILED:", p)
	}
	res.Correct = len(problems) == 0
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = w.ops(), w.ops(), false
	}

	var untraced, traced []child
	for _, c := range kids {
		switch {
		case c.err != nil || len(c.out.Checks) > 0:
		case c.traced:
			traced = append(traced, c)
		default:
			untraced = append(untraced, c)
		}
	}
	e2e := endToEndValues(untraced)
	printTable(log, "end-to-end (untraced repetitions)", endToEnd, e2e, perRepetition(untraced))
	ms, vals := endToEnd, e2e
	if trace {
		ms, vals = perLayer, perLayerValues(untraced, traced, log)
		printTable(log, "per-layer", perLayer, vals, nil)
		if o, n := traceOverhead(untraced, traced); n > 0 {
			fmt.Fprintf(log, "trace overhead: %+.1f%% (median over %d populations of traced over untraced timed seconds)\n", 100*o, n)
		}
	}
	for _, m := range ms {
		res.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	return res
}

// traceOverhead compares each traced repetition with its untraced twin
// (same population) and returns the median slowdown and the pair count.
func traceOverhead(untraced, traced []child) (float64, int) {
	twin := map[int]child{}
	for _, c := range untraced {
		twin[c.idx] = c
	}
	var ratios []float64
	for _, c := range traced {
		if u, ok := twin[c.idx]; ok {
			ratios = append(ratios, c.at(c.out.TimedS)/u.at(u.out.TimedS))
		}
	}
	return median(ratios) - 1, len(ratios)
}

// endToEndValues reduces repetitions to the end-to-end metrics.
// Throughput and CPU pool every repetition's device-days and seconds,
// so a run weighs each population it drew by its size; set-up time and
// peak RSS are the median repetition's.
func endToEndValues(kids []child) map[string]float64 {
	var setup, rss []float64
	var dd, timed, cpu float64
	for _, c := range kids {
		setup = append(setup, c.at(c.out.SetupS))
		rss = append(rss, c.rssMB)
		dd += c.out.DeviceDays
		timed += c.at(c.out.TimedS)
		cpu += c.at(c.cpuS)
	}
	out := map[string]float64{"setup_s": median(setup), "peak_rss_mb": median(rss)}
	if dd > 0 {
		out["device_days_per_s"] = dd / timed
		out["cpu_s_per_kdd"] = cpu / (dd / 1000)
	}
	return out
}

// perRepetition returns each end-to-end metric per repetition, for the
// printed quartiles.
func perRepetition(kids []child) map[string][]float64 {
	out := map[string][]float64{}
	for _, c := range kids {
		for k, v := range endToEndValues([]child{c}) {
			out[k] = append(out[k], v)
		}
	}
	return out
}

// perLayerValues reduces a traced run to the per-layer metrics: report
// counters and phase times are the median untraced repetition's; span
// percentiles pool every traced repetition's calls, and span counts and
// delivery self time are the median traced repetition's; CPU per layer
// pools every traced repetition's profile. A layer the workload never
// exercises reads 0.
func perLayerValues(untraced, traced []child, log io.Writer) map[string]float64 {
	perRep := map[string][]float64{}
	for _, c := range untraced {
		for k, v := range c.out.Layer {
			if strings.HasSuffix(k, "_ms") {
				v = c.at(v)
			}
			perRep[k] = append(perRep[k], v)
		}
	}
	pooled := map[string][]float64{}
	cpu := map[string]float64{}
	var kdd float64
	for _, c := range traced {
		kdd += c.out.DeviceDays / 1000
		for k, v := range c.out.CPU {
			cpu[k] += c.at(v)
		}
		var client, server float64
		for _, s := range callSpans {
			d := c.out.Spans[s.name]
			perRep[s.name+"_n"] = append(perRep[s.name+"_n"], float64(len(d)))
			for _, x := range d {
				x = c.at(x)
				pooled[s.name] = append(pooled[s.name], x)
				switch {
				case strings.HasPrefix(s.name, "delivery."):
					client += x
				case strings.HasPrefix(s.name, "coord."):
					server += x
				}
			}
		}
		perRep["delivery.self_s"] = append(perRep["delivery.self_s"], (client-server)/1000)
	}

	out := map[string]float64{}
	for k, v := range perRep {
		out[k] = median(v)
	}
	for _, s := range callSpans {
		d := pooled[s.name]
		if len(d) == 0 {
			continue
		}
		t, label := tail(d)
		out[s.name+"_p50_ms"], out[s.name+"_tail_ms"] = median(d), t
		fmt.Fprintf(log, "span %-20s %6d calls: p50 %.4f ms, tail (%s) %.4f ms\n", s.name, len(d), median(d), label, t)
	}

	var total, named float64
	for l, v := range cpu {
		total += v
		if l != "other_repo" && l != "unattributed" {
			named += v
		}
	}
	if total == 0 || kdd == 0 {
		return out
	}
	for _, l := range cpuLayers {
		out["cpu."+l.name] = cpu[l.name] / kdd
	}
	out["cpu.attributed_frac"] = named / total
	layers := make([]string, 0, len(cpu))
	for l := range cpu {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return cpu[layers[i]] > cpu[layers[j]] })
	var parts []string
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", l, 100*cpu[l]/total))
	}
	fmt.Fprintf(log, "cpu profile, %d traced repetitions: %s\n", len(traced), strings.Join(parts, ", "))
	return out
}

// printTable prints each metric's reported value and, where given, the
// median and quartiles of its per-repetition values.
func printTable(log io.Writer, title string, ms []metric, vals map[string]float64, perRep map[string][]float64) {
	fmt.Fprintf(log, "%s:\n", title)
	for _, m := range ms {
		fmt.Fprintf(log, "  %-32s %12.6g %-8s", m.name, vals[m.name], m.unit)
		if xs := perRep[m.name]; len(xs) > 0 {
			q1, med, q3 := quartiles(xs)
			fmt.Fprintf(log, " per repetition %.6g [%.6g, %.6g] (%d)", med, q1, q3, len(xs))
		}
		fmt.Fprintln(log)
	}
}
