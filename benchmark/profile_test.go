package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

var spinSink uint64

// spin burns CPU in this package without allocating.
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestProfileChargesSpinLoopToItsPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinSink = spin(600 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cpu := cpuByLayer(samples)
	var total float64
	for _, v := range cpu {
		total += v
	}
	if share := cpu["bench"] / total; share < 0.9 {
		t.Errorf("bench layer got %.1f%% of the CPU samples (%v), want at least 90%%", 100*share, cpu)
	}
	if total < 0.3 || total > 1.2 {
		t.Errorf("profile holds %.3f CPU seconds for a 600 ms spin", total)
	}
}

func TestLayerOf(t *testing.T) {
	const root = "/src/repo/internal/"
	for _, tc := range []struct {
		want  string
		stack []frame // leaf first
	}{
		// The innermost repository frame decides, below any runtime or
		// standard-library frames.
		{"core", []frame{{"runtime.mallocgc", "malloc.go"}, {"repro/internal/core.(*Graph).settle", root + "core/settle.go"}, {"repro/internal/fleet.Run", root + "fleet/fleet.go"}}},
		{"delivery", []frame{{"encoding/json.Marshal", "encode.go"}, {"repro/internal/coord/delivery.Handler.func1", root + "coord/delivery/http.go"}}},
		{"coord", []frame{{"repro/internal/coord.(*Coordinator).Claim", root + "coord/coord.go"}}},
		{"bench", []frame{{"crypto/md5.block", "md5block.go"}, {"main.(*rep).finish", "/src/repo/benchmark/workloads.go"}}},
		{"other_repo", []frame{{"repro/internal/estimator.(*EWMA).Observe", root + "estimator/estimator.go"}}},
		// Checkpoint work is found by package and by file.
		{"checkpoint", []frame{{"repro/internal/snap.(*Writer).U64", root + "snap/snap.go"}, {"repro/internal/fleet.snapshotDevice", root + "fleet/checkpoint.go"}}},
		{"checkpoint", []frame{{"repro/internal/fleet.snapshotDevice", root + "fleet/checkpoint.go"}, {"repro/internal/fleet.Run", root + "fleet/fleet.go"}}},
		{"checkpoint", []frame{{"repro/internal/kernel.(*Kernel).Snapshot", root + "kernel/snapshot.go"}}},
		{"kernel", []frame{{"repro/internal/kernel.(*Kernel).Run", root + "kernel/kernel.go"}, {"repro/internal/kernel.(*Kernel).Snapshot", root + "kernel/snapshot.go"}}},
		// Without a repository frame: runtime by leaf, else unattributed.
		{"runtime", []frame{{"runtime.scanobject", "mgcmark.go"}, {"runtime.gcBgMarkWorker", "mgc.go"}}},
		{"unattributed", []frame{{"syscall.Syscall", "syscall.go"}, {"net.(*conn).Read", "net.go"}, {"runtime.goexit", "asm.s"}}},
		{"unattributed", nil},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parsed a non-gzip profile")
	}
}
