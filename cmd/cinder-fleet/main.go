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
//	cinder-fleet -devices 200 -scenario idle -battery-j 100 -per-device
//	cinder-fleet -devices 1000 -duration 24h -scenario dayinthelife -json
//	cinder-fleet -devices 500 -scenario dayinthelife -duration 24h -sweep battery-j=15000,30000,60000
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
	"repro/internal/units"
)

func main() {
	// All work happens in realMain so the profile-writing defers run
	// before the process exits, error or not (os.Exit skips defers).
	os.Exit(realMain())
}

func realMain() int {
	var (
		workers   = flag.Int("workers", 0, "worker goroutines (0 = one per CPU)")
		perDevice = flag.Bool("per-device", false, "also print one line per device (with -json: include per-device results)")
		reference = flag.Bool("reference", false, "run the reference configuration: fixed-tick engine, every periodic task executed, every device built fresh (single-process only)")
		jsonOut   = flag.Bool("json", false, "emit the deterministic JSON report (docs/fleet-report.md) instead of text")
		canonOut  = flag.Bool("canonical", false, "with -json: zero the engine diagnostics (engine_steps, flow_walks, settled_batches, settled_sweeps, settled_charges) — the form that is byte-identical between production and -reference, across worker counts, shards and checkpoint/resume")
		sweep     = flag.String("sweep", "", "sweep mode, e.g. battery-j=15000,30000,60000: run the fleet once per value")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file at exit")

		resume  = flag.Bool("resume", false, "continue from the newest complete epoch file in -checkpoint-dir")
		shard   = flag.String("shard", "", "run one shard of the fleet, e.g. 2/8: emit a mergeable partial report")
		merge   = flag.Bool("merge", false, "merge partial reports (the positional args) into the full fleet report")
		outPath = flag.String("o", "", "write the report to this file instead of stdout")

		runnerURL = flag.String("runner", "", "attach to a cinder-coord service at this URL as a work-stealing runner")
		runnerID  = flag.String("runner-id", "", "runner name in leases and logs (default hostname-pid)")
		shardsN   = flag.Int("shards", 0, "run through a coordinator on an HTTP loopback with this many shards (the cluster code path, in one process)")
		runnersN  = flag.Int("runners", 0, "with -shards: concurrent runner loops dialing the loopback coordinator (default 1)")
		progress  = flag.Bool("progress", false, "print a progress line (completion, device-days/s, ETA, checkpoint) to stderr every few seconds")
		perDevOut = flag.String("per-device-out", "", "stream one NDJSON line per device to this file, in device-index order, without retaining the per-device array in memory")
	)
	build := fleet.BindFlags(flag.CommandLine)
	flag.Parse()

	if *reference && (*shard != "" || *shardsN > 0 || *runnersN > 0 || *runnerURL != "" || *merge) {
		return fail(fmt.Errorf("-reference is single-process: it cannot combine with -shard, -shards, -runners, -runner or -merge"))
	}

	if *runnerURL != "" {
		if *merge || *shard != "" || *sweep != "" || *shardsN > 0 || *jsonOut || *perDevice || *perDevOut != "" {
			return fail(fmt.Errorf("-runner takes its work from the coordinator; it cannot combine with -merge, -shard, -sweep, -shards, -json, -per-device or -per-device-out"))
		}
		if err := runRunner(*runnerURL, *runnerID, *workers, *progress); err != nil {
			return fail(err)
		}
		return 0
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
	if *merge {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-sweep", *sweep != ""},
			{"-shard", *shard != ""},
			{"-shards", *shardsN > 0},
			{"-runners", *runnersN > 0},
			{"-checkpoint-dir", cfg.CheckpointDir != ""},
			{"-resume", *resume},
		} {
			if f.set {
				return fail(fmt.Errorf("-merge combines finished partials; it cannot combine with %s", f.name))
			}
		}
		if err := runMerge(flag.Args(), *jsonOut, *canonOut, *perDevice, *outPath); err != nil {
			return fail(err)
		}
		return 0
	}

	cfg.Workers = *workers
	// Per-device output needs the result array retained; otherwise the
	// run streams results and stays O(workers + buckets).
	cfg.KeepResults = *perDevice
	cfg.Reference = *reference
	cfg.Resume = *resume
	cfg.Warnf = logf

	if *shardsN > 0 || *runnersN > 0 {
		shards := *shardsN
		if shards <= 0 {
			shards = *runnersN
		}
		switch {
		case *shard != "" || *sweep != "":
			return fail(fmt.Errorf("-shards runs the whole job; it cannot combine with -shard or -sweep"))
		case *resume:
			return fail(fmt.Errorf("-shards manages resumption itself (lost shards are re-leased with resume); drop -resume"))
		case *perDevice || *perDevOut != "":
			return fail(fmt.Errorf("per-device output needs the single-process path: shard partials do not carry per-device results"))
		}
		if err := runLocalCoord(cfg, shards, *runnersN, *jsonOut, *canonOut, *progress, *outPath); err != nil {
			return fail(err)
		}
		return 0
	}
	if *sweep != "" {
		switch {
		case *shard != "":
			return fail(fmt.Errorf("-shard runs one shard of one fleet; it cannot combine with -sweep"))
		case *perDevOut != "" || *progress:
			return fail(fmt.Errorf("-sweep runs several fleets; -per-device-out and -progress apply to a single run"))
		}
		if err := runSweep(cfg, *sweep, *jsonOut, *perDevice); err != nil {
			return fail(err)
		}
		return 0
	}
	if *shard != "" {
		if cfg.ShardIndex, cfg.ShardCount, err = parseShard(*shard); err != nil {
			return fail(err)
		}
	}

	closeStreams, err := attachStreams(&cfg, *perDevOut, *canonOut, *progress)
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	var rep fleet.Report
	var part *fleet.Partial
	if cfg.ShardCount > 0 {
		part, err = fleet.RunShard(cfg)
	} else {
		rep, err = fleet.Run(cfg)
	}
	if cerr := closeStreams(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	if part != nil {
		b, err := part.JSON()
		if err != nil {
			return fail(err)
		}
		if err := emit(*outPath, append(b, '\n')); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "cinder-fleet: shard %d/%d (devices [%d,%d)) done in %v\n",
			cfg.ShardIndex, cfg.ShardCount, part.RangeLo, part.RangeHi,
			time.Since(start).Round(time.Millisecond))
		return 0
	}
	elapsed := time.Since(start)

	if *jsonOut {
		if err := emitJSON(rep, *perDevice, *canonOut, *outPath); err != nil {
			return fail(err)
		}
		return 0
	}
	fmt.Print(rep.Format())
	simulated := time.Duration(int64(cfg.Duration)) * time.Millisecond * time.Duration(cfg.Devices)
	fmt.Printf("  wall clock: %v with %d workers (%s realtime across the fleet)\n",
		elapsed.Round(time.Millisecond), rep.Workers, realtimeRatio(simulated, elapsed))

	if *perDevice {
		printPerDevice(rep)
	}
	return 0
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
func runMerge(paths []string, jsonOut, canonical, perDevice bool, outPath string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-merge needs partial-report files as arguments")
	}
	if perDevice {
		return fmt.Errorf("-merge cannot reconstruct per-device results (shards do not carry them)")
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
		return emitJSON(rep, false, canonical, outPath)
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

func emitJSON(rep fleet.Report, perDevice, canonical bool, path string) error {
	var b []byte
	var err error
	if canonical {
		b, err = rep.CanonicalJSON(perDevice)
	} else {
		b, err = rep.JSON(perDevice)
	}
	if err != nil {
		return err
	}
	return emit(path, append(b, '\n'))
}

// printPerDevice renders one line per device of a report.
func printPerDevice(rep fleet.Report) {
	fmt.Println("  per-device:")
	for _, r := range rep.Results {
		died := "-"
		if r.Died {
			died = r.DiedAt.String()
		}
		fmt.Printf("    #%04d seed=%-20d %-14s consumed=%-12v util=%6.2f%% polls=%-4d activations=%-3d died=%s\n",
			r.Index, r.Seed, r.Scenario, r.Consumed, r.Utilization, r.Polls, r.RadioActivations, died)
	}
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

// runSweep parses a sweep spec ("battery-j=a,b,c"), runs the fleet once
// per value, and prints a per-value summary (or a JSON array with
// -json). Only the battery-life sweep is defined for now.
func runSweep(cfg fleet.Config, spec string, jsonOut, perDevice bool) error {
	key, list, ok := strings.Cut(spec, "=")
	if !ok || key != "battery-j" {
		return fmt.Errorf("unsupported sweep %q (want battery-j=v1,v2,...)", spec)
	}
	var caps []units.Energy
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("bad sweep value %q: want positive joules", f)
		}
		caps = append(caps, units.Joules(v))
	}
	if len(caps) == 0 {
		return fmt.Errorf("empty sweep %q", spec)
	}

	reports := make([]fleet.Report, len(caps))
	for i, c := range caps {
		run := cfg
		run.BatteryCapacity = c
		rep, err := fleet.Run(run)
		if err != nil {
			return err
		}
		reports[i] = rep
	}

	if jsonOut {
		fmt.Println("[")
		for i, rep := range reports {
			b, err := rep.JSON(perDevice)
			if err != nil {
				return err
			}
			sep := ","
			if i == len(reports)-1 {
				sep = ""
			}
			fmt.Printf("%s%s\n", b, sep)
		}
		fmt.Println("]")
		return nil
	}

	fmt.Printf("battery-life sweep: %d devices × %v, scenario %q, seed %d\n",
		cfg.Devices, cfg.Duration, cfg.Scenario.Name(), cfg.Seed)
	fmt.Printf("  %-12s  %-12s  %-10s  %-12s  %-12s\n",
		"battery", "mean drawn", "deaths", "life p50", "life p90")
	for i, rep := range reports {
		life50, life90 := "-", "-"
		if rep.Dead > 0 {
			life50, life90 = rep.LifeP50.String(), rep.LifeP90.String()
		}
		fmt.Printf("  %-12v  %-12v  %-10s  %-12s  %-12s\n",
			caps[i], rep.MeanConsumed, fmt.Sprintf("%d/%d", rep.Dead, rep.Devices), life50, life90)
	}
	if perDevice {
		for i, rep := range reports {
			fmt.Printf("battery %v:\n", caps[i])
			printPerDevice(rep)
		}
	}
	return nil
}

// fail reports an error and returns realMain's failure exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "cinder-fleet:", err)
	return 1
}
