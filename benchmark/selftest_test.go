package main

import (
	"testing"
	"time"

	"repro/internal/fleet"
)

// tiny runs every workload at about 1% of its size (hoarders and
// month-ckpt at the fewest devices that still draw several cohorts) with
// fleet seed 1, pinned to its canonical-report md5.
var tiny = map[string]struct {
	devices int
	md5     string
}{
	"day-mix":      {30, "def97ddcde34cd00fb724caab32f9d4e"},
	"hoarders":     {6, "a927dad531fa4c1a8597c530644f6f07"},
	"month-ckpt":   {4, "3b24757dda68606ade32bab4fce181b8"},
	"cluster-idle": {1200, "124ec0078aba6afa7a8e672769d1ee68"},
}

func runTiny(t *testing.T, w *workload, traced bool) *rep {
	t.Helper()
	traceDir := ""
	if traced {
		traceDir = t.TempDir()
	}
	r := newRep(w, tiny[w.name].devices, 1, t.TempDir(), traceDir, time.Now())
	if err := w.run(r); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if err := r.closeTrace(); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if len(r.out.Checks) > 0 || r.out.FailedOps > 0 {
		t.Fatalf("%s: checks failed %q, %d failed operations", w.name, r.out.Checks, r.out.FailedOps)
	}
	return r
}

// wantSpans are the call spans each workload's traced run must record.
var wantSpans = map[string][]string{
	"day-mix":      {"fleet.build"},
	"hoarders":     {"fleet.build"},
	"month-ckpt":   {"fleet.build", "fleet.epoch"},
	"cluster-idle": {"coord.claim", "coord.complete", "delivery.claim", "delivery.complete", "runner.shard"},
}

func TestWorkloadsReproducePins(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := runTiny(t, w, false)
			if r.out.MD5 != tiny[w.name].md5 {
				t.Errorf("md5 %s, pinned %s", r.out.MD5, tiny[w.name].md5)
			}
			tr := runTiny(t, w, true)
			if tr.out.MD5 != r.out.MD5 {
				t.Errorf("traced md5 %s differs from untraced %s: a wrapper changed the simulation", tr.out.MD5, r.out.MD5)
			}
			for _, s := range wantSpans[w.name] {
				if len(tr.out.Spans[s]) == 0 {
					t.Errorf("traced run recorded no %s spans (have %v)", s, keys(tr.out.Spans))
				}
			}
		})
	}
}

func TestMonthWritesDailyEpochsAndResumes(t *testing.T) {
	w, err := findWorkload("month-ckpt")
	if err != nil {
		t.Fatal(err)
	}
	// runTiny already failed on a resumed report differing from the
	// uninterrupted one; here the run must also have written its epochs.
	r := runTiny(t, w, false)
	if got := r.out.Layer["checkpoint.epochs"]; got != 29 {
		t.Errorf("%v epoch files, want 29 (one per day boundary)", got)
	}
	if r.out.Layer["fleet.resume_ms"] <= 0 {
		t.Error("resume phase not timed")
	}
}

func TestClusterMatchesSingleProcess(t *testing.T) {
	w, err := findWorkload("cluster-idle")
	if err != nil {
		t.Fatal(err)
	}
	r := runTiny(t, w, false)
	rep, err := fleet.Run(fleet.Config{
		Devices: tiny[w.name].devices, Seed: 1, Duration: 7 * day, Workers: workers,
		Scenario: fleet.Scenarios()["idle"],
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.CanonicalJSON(false)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(r.canonical) {
		t.Errorf("cluster report differs from the single-process run:\n%s\nvs\n%s", r.canonical, b)
	}
	if r.out.Ops != tiny[w.name].devices/shardDevices {
		t.Errorf("%d leases for %d shards", r.out.Ops, tiny[w.name].devices/shardDevices)
	}
}

func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
