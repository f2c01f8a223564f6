package main

// The coordinator-facing side of cinder-fleet: the -runner mode that
// attaches this process to a cinder-coord service as a work-stealing
// runner, the -shards/-runners local mode that runs the same
// coordinator/runner stack over an HTTP loopback, and the -progress
// stderr meter
// both feed from the fleet's strict-index Progress stream.

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/delivery"
	"repro/internal/fleet"
	"repro/internal/units"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cinder-fleet: "+format+"\n", args...)
}

// progressMeter aggregates Progress updates (possibly from several
// shards at once) into a rate-limited stderr line: completion,
// simulated device-days per wall second, ETA, and the checkpoint
// floor. All simulated-time arithmetic comes from the Progress values;
// only the rate divides by this process's wall clock.
type progressMeter struct {
	mu     sync.Mutex
	start  time.Time
	last   time.Time
	every  time.Duration
	total  units.Time // simulated device-time of the whole job
	shards map[int]fleet.Progress
}

func newProgressMeter(total units.Time) *progressMeter {
	return &progressMeter{
		start:  time.Now(),
		every:  2 * time.Second,
		total:  total,
		shards: make(map[int]fleet.Progress),
	}
}

// update folds in one shard's latest Progress and prints at most one
// line per interval.
func (pm *progressMeter) update(shard int, p fleet.Progress) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.shards[shard] = p
	now := time.Now()
	if now.Sub(pm.last) < pm.every {
		return
	}
	pm.last = now

	var simDone units.Time
	total := pm.total
	for _, q := range pm.shards {
		simDone += q.SimDone()
		if pm.total == 0 {
			// No job-wide total was given (plain or -shard runs): the
			// tracked ranges are the whole job.
			total += q.SimTotal()
		}
	}
	line := fleet.ProgressText(simDone, total, now.Sub(pm.start))
	if len(pm.shards) == 1 {
		for _, q := range pm.shards {
			if q.Epochs > 1 {
				line += fmt.Sprintf("  epoch %d/%d", q.Epoch+1, q.Epochs)
			}
			if q.LastCheckpoint >= 0 {
				line += fmt.Sprintf("  last checkpoint %d", q.LastCheckpoint)
			}
		}
	} else {
		line += fmt.Sprintf("  %d shards in flight", len(pm.shards))
	}
	logf("%s", line)
}

// runRunner attaches this process to a coordinator as a runner: claim
// a shard, simulate it, stream the partial back, repeat until the job
// is done.
func runRunner(url, id string, workers int, progress bool) error {
	if id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "runner"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	conn := delivery.DialHTTP(url)
	defer conn.Close()
	r := &coord.Runner{ID: id, Conn: conn, Workers: workers, Logf: logf}
	if progress {
		// Each leased shard gets its own meter: a runner only knows its
		// current shard's span, and the job-wide view lives on the
		// coordinator's /status.
		var mu sync.Mutex
		meters := make(map[int]*progressMeter)
		r.OnProgress = func(shard int, p fleet.Progress) {
			mu.Lock()
			pm := meters[shard]
			if pm == nil {
				pm = newProgressMeter(p.SimTotal())
				meters[shard] = pm
			}
			mu.Unlock()
			pm.update(shard, p)
		}
	}
	logf("runner %s attached to %s", id, url)
	if err := r.Run(context.Background()); err != nil {
		return err
	}
	logf("runner %s: job done", id)
	return nil
}

// runLocalCoord executes the run through the coordinator/runner stack
// on an HTTP loopback: the full cluster code path (shard queue, leases,
// HTTP delivery, partial merge) inside one process. The report is
// byte-identical to the plain single-process path.
func runLocalCoord(cfg fleet.Config, shards, runners int, jsonOut, canonical, progress bool, outPath string) error {
	if runners <= 0 {
		runners = 1
	}
	job, err := fleet.NewJob(cfg, shards)
	if err != nil {
		return err
	}
	opt := coord.LocalOptions{Runners: runners, Workers: cfg.Workers}
	if opt.Workers == 0 && runners > 1 {
		// Split the CPUs between runner pools instead of oversubscribing
		// runners × GOMAXPROCS workers (the plain path's pool size).
		if opt.Workers = runtime.GOMAXPROCS(0) / runners; opt.Workers < 1 {
			opt.Workers = 1
		}
	}
	if progress {
		pm := newProgressMeter(job.SimTotal())
		opt.OnProgress = func(runner string, shard int, p fleet.Progress) { pm.update(shard, p) }
	}
	start := time.Now()
	rep, err := coord.RunHTTP(context.Background(), job, opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if jsonOut {
		return emitJSON(rep, false, canonical, outPath)
	}
	fmt.Print(rep.Format())
	simulated := time.Duration(int64(cfg.Duration)) * time.Millisecond * time.Duration(cfg.Devices)
	fmt.Printf("  wall clock: %v with %d runners × %d workers (%s realtime across the fleet)\n",
		elapsed.Round(time.Millisecond), runners, opt.Workers, realtimeRatio(simulated, elapsed))
	return nil
}

// attachStreams wires -per-device-out and -progress into a run
// config. The returned closer must run after the fleet finishes (a
// no-op when -per-device-out is off).
func attachStreams(cfg *fleet.Config, perDevOut string, canonical, progress bool) (func() error, error) {
	closer := func() error { return nil }
	if perDevOut != "" {
		emit, c, err := openPerDeviceOut(perDevOut, canonical)
		if err != nil {
			return nil, err
		}
		cfg.PerDevice = emit
		closer = c
	}
	if progress {
		pm := newProgressMeter(0)
		cfg.Progress = func(p fleet.Progress) error {
			pm.update(0, p) // the run's one range
			return nil
		}
	}
	return closer, nil
}

// openPerDeviceOut returns a strict-index-order NDJSON emitter writing
// to path, and a closer that must run after the fleet finishes.
func openPerDeviceOut(path string, canonical bool) (func(fleet.DeviceResult) error, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	emit := func(r fleet.DeviceResult) error {
		line, err := r.NDJSON(canonical)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		return bw.WriteByte('\n')
	}
	closer := func() error {
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return emit, closer, nil
}
