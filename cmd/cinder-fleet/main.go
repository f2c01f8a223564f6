// cinder-fleet sweeps a Cinder workload over a simulated fleet of
// phones: N independent systems run concurrently on a bounded worker
// pool, each with a deterministically derived seed, and the aggregate
// battery-life / consumed-energy / utilization statistics are printed.
// For a fixed fleet seed the output is byte-identical regardless of
// worker count, shard count, or checkpoint/resume interruptions. The
// JSON report schema is documented in docs/fleet-report.md.
//
// Usage:
//
//	cinder-fleet -devices 1000 -duration 20m -scenario poller
//	cinder-fleet -devices 200 -scenario idle -battery-j 100 -per-device-out results.ndjson
//	cinder-fleet -devices 1000 -duration 24h -scenario dayinthelife -json
//
// A battery-life sweep is one run per capacity:
//
//	for j in 15000 30000 60000; do cinder-fleet -devices 500 -scenario dayinthelife -duration 24h -battery-j $j; done
//
// Week-scale runs: checkpoint/resume and sharding.
//
//	cinder-fleet -devices 1000000 -duration 168h -scenario weekinthelife -checkpoint-dir ckpt
//	cinder-fleet -devices 1000000 -duration 168h -scenario weekinthelife -checkpoint-dir ckpt -resume
//	cinder-fleet -devices 1000000 -duration 168h -scenario weekinthelife -shard 0/4 -o part0.json
//	cinder-fleet -merge part0.json part1.json part2.json part3.json
//
// Checking production against the reference configuration (fixed-tick
// engine, every periodic task executed, every device built fresh):
//
//	cinder-fleet -devices 200 -duration 10m -scenario dayinthelife -json -canonical -reference
//
// Each mode (-runner, -merge, -shard, or a plain run) refuses by name
// any flag set on the command line that it would ignore.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
)

func main() {
	// All work happens in realMain so the profile-writing defers run
	// before the process exits, error or not (os.Exit skips defers).
	os.Exit(realMain())
}

func realMain() int {
	var (
		workers   = flag.Int("workers", 0, "worker goroutines (0 = one per CPU)")
		reference = flag.Bool("reference", false, "run the reference configuration: fixed-tick engine, every periodic task executed, every device built fresh (single-process only)")
		jsonOut   = flag.Bool("json", false, "emit the deterministic JSON report (docs/fleet-report.md) instead of text")
		canonOut  = flag.Bool("canonical", false, "with -json: zero the engine diagnostics (engine_steps, flow_walks, settled_batches, settled_sweeps, settled_charges) — the form that is byte-identical between production and -reference, across worker counts, shards and checkpoint/resume")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file at exit")

		resume  = flag.Bool("resume", false, "continue from the newest complete epoch file in -checkpoint-dir")
		shard   = flag.String("shard", "", "run one shard of the fleet, e.g. 2/8: emit a mergeable partial report")
		merge   = flag.Bool("merge", false, "merge partial reports (the positional args) into the full fleet report")
		outPath = flag.String("o", "", "write the report to this file instead of stdout")

		runnerURL = flag.String("runner", "", "attach to a cinder-coord service at this URL as a work-stealing runner")
		runnerID  = flag.String("runner-id", "", "runner name in leases and logs (default hostname-pid)")
		progress  = flag.Bool("progress", false, "print a progress line (completion, device-days/s, ETA, checkpoint) to stderr every few seconds")
		perDevOut = flag.String("per-device-out", "", "stream one NDJSON line per device to this file, in device-index order, without retaining the per-device array in memory")
	)
	build := fleet.BindFlags(flag.CommandLine)
	flag.Parse()

	// The modes, in the order they take precedence, each with the flags
	// it reads (every mode reads the profiling flags too). A set flag
	// the chosen mode would ignore is refused by name.
	const run = " devices seed duration scenario battery-j checkpoint-dir checkpoint-every"
	modes := []struct {
		flag, does, reads string
		on                bool
	}{
		{"-runner", "takes its work from the coordinator", "runner runner-id workers progress", *runnerURL != ""},
		{"-merge", "combines finished partials", "merge json canonical o", *merge},
		{"-shard", "runs one shard of one fleet",
			"shard workers canonical progress per-device-out resume o" + run, *shard != ""},
		{"a plain run", "simulates one fleet in this process",
			"workers reference json canonical per-device-out progress resume o" + run, true},
	}
	i := 0
	for !modes[i].on {
		i++
	}
	m := modes[i]
	reads := map[string]bool{"cpuprofile": true, "memprofile": true}
	for _, name := range strings.Fields(m.reads) {
		reads[name] = true
	}
	if *reference && !reads["reference"] {
		return fail(fmt.Errorf("-reference is single-process: it cannot combine with -shard, -runner or -merge"))
	}
	var ignored []string
	flag.Visit(func(f *flag.Flag) {
		if !reads[f.Name] {
			ignored = append(ignored, f.Name)
		}
	})
	if len(ignored) > 0 {
		return fail(fmt.Errorf("%s %s; it cannot combine with -%s", m.flag, m.does, ignored[0]))
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cinder-fleet:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "cinder-fleet:", err)
			}
		}()
	}

	cfg, err := build()
	if err != nil {
		return fail(err)
	}
	cfg.Workers = *workers
	cfg.Reference = *reference
	cfg.Resume = *resume
	cfg.Warnf = logf

	switch m.flag {
	case "-runner":
		err = runRunner(*runnerURL, *runnerID, *workers, *progress)
	case "-merge":
		err = runMerge(flag.Args(), *jsonOut, *canonOut, *outPath)
	default:
		err = runFleet(cfg, *shard, *perDevOut, *jsonOut, *canonOut, *progress, *outPath)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// runFleet simulates the fleet in this process and prints its report,
// or, given a -shard spec "i/n", runs shard i of the job's n-shard plan
// and writes its partial report.
func runFleet(cfg fleet.Config, spec, perDevOut string, jsonOut, canonical, progress bool, outPath string) error {
	if spec != "" {
		idx, count, err := parseShard(spec)
		if err != nil {
			return err
		}
		job, err := fleet.NewJob(cfg, count)
		if err != nil {
			return err
		}
		scfg, err := job.ShardConfig(idx)
		if err != nil {
			return err
		}
		scfg.Workers, scfg.Resume, scfg.Warnf = cfg.Workers, cfg.Resume, cfg.Warnf
		cfg = scfg
	}
	closeStreams, err := attachStreams(&cfg, perDevOut, canonical, progress)
	if err != nil {
		return err
	}
	start := time.Now()
	var rep fleet.Report
	var part *fleet.Partial
	if spec != "" {
		part, err = fleet.RunShard(cfg)
	} else {
		rep, err = fleet.Run(cfg)
	}
	if cerr := closeStreams(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if part != nil {
		b, err := part.JSON()
		if err != nil {
			return err
		}
		if err := emit(outPath, append(b, '\n')); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cinder-fleet: shard %d/%d (devices [%d,%d)) done in %v\n",
			part.ShardIndex, part.ShardCount, part.RangeLo, part.RangeHi, elapsed.Round(time.Millisecond))
		return nil
	}
	if jsonOut {
		return emitJSON(rep, canonical, outPath)
	}
	fmt.Print(rep.Format())
	simulated := time.Duration(int64(cfg.Duration)) * time.Millisecond * time.Duration(cfg.Devices)
	fmt.Printf("  wall clock: %v with %d workers (%s realtime across the fleet)\n",
		elapsed.Round(time.Millisecond), rep.Workers, realtimeRatio(simulated, elapsed))
	return nil
}

// parseShard parses "i/n".
func parseShard(s string) (idx, count int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if ok {
		idx, err = strconv.Atoi(strings.TrimSpace(i))
		if err == nil {
			count, err = strconv.Atoi(strings.TrimSpace(n))
		}
	}
	if !ok || err != nil || count <= 0 || idx < 0 || idx >= count {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n with 0 ≤ i < n)", s)
	}
	return idx, count, nil
}

// runMerge combines shard partials into the full fleet report.
func runMerge(paths []string, jsonOut, canonical bool, outPath string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-merge needs partial-report files as arguments")
	}
	parts := make([]*fleet.Partial, 0, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		part, err := fleet.ParsePartial(b)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		parts = append(parts, part)
	}
	rep, err := fleet.Merge(parts)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(rep, canonical, outPath)
	}
	return emit(outPath, []byte(rep.Format()))
}

// emit writes bytes to the -o file, or stdout.
func emit(path string, b []byte) error {
	if path == "" {
		_, err := os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func emitJSON(rep fleet.Report, canonical bool, path string) error {
	var b []byte
	var err error
	if canonical {
		b, err = rep.CanonicalJSON(false)
	} else {
		b, err = rep.JSON(false)
	}
	if err != nil {
		return err
	}
	return emit(path, append(b, '\n'))
}

// realtimeRatio formats simulated/elapsed defensively: a tiny run can
// finish below the wall clock's resolution, and a bare division would
// print +Inf or NaN. The elapsed time is clamped to one nanosecond.
func realtimeRatio(simulated, elapsed time.Duration) string {
	if simulated <= 0 {
		return "0x"
	}
	if elapsed < time.Nanosecond {
		elapsed = time.Nanosecond
	}
	return fmt.Sprintf("%.0fx", simulated.Seconds()/elapsed.Seconds())
}

// fail reports an error and returns realMain's failure exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "cinder-fleet:", err)
	return 1
}
