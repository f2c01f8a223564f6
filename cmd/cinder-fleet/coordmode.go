package main

// The coordinator-facing side of cinder-fleet: the -runner mode that
// attaches this process to a cinder-coord service as a work-stealing
// runner, and the -progress stderr meter that every simulating mode
// feeds from the fleet's strict-index Progress stream.

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/delivery"
	"repro/internal/fleet"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cinder-fleet: "+format+"\n", args...)
}

// progressMeter turns the Progress updates of one device range into a
// rate-limited stderr line: completion, simulated device-days per wall
// second, ETA, and the checkpoint floor. All simulated-time arithmetic
// comes from the Progress values; only the rate divides by this
// process's wall clock.
type progressMeter struct {
	mu    sync.Mutex
	start time.Time
	last  time.Time
	every time.Duration
}

func newProgressMeter() *progressMeter {
	return &progressMeter{start: time.Now(), every: 2 * time.Second}
}

// update prints the range's latest Progress, at most one line per
// interval.
func (pm *progressMeter) update(p fleet.Progress) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	now := time.Now()
	if now.Sub(pm.last) < pm.every {
		return
	}
	pm.last = now
	line := fleet.ProgressText(p.SimDone(), p.SimTotal(), now.Sub(pm.start))
	if p.Epochs > 1 {
		line += fmt.Sprintf("  epoch %d/%d", p.Epoch+1, p.Epochs)
	}
	if p.LastCheckpoint >= 0 {
		line += fmt.Sprintf("  last checkpoint %d", p.LastCheckpoint)
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
		// Each leased shard gets a fresh meter: a runner only knows its
		// current shard's span, and the job-wide view lives on the
		// coordinator's /status. A runner runs one shard at a time.
		var pm *progressMeter
		cur := -1
		r.OnProgress = func(shard int, p fleet.Progress) {
			if shard != cur {
				pm, cur = newProgressMeter(), shard
			}
			pm.update(p)
		}
	}
	logf("runner %s attached to %s", id, url)
	if err := r.Run(context.Background()); err != nil {
		return err
	}
	logf("runner %s: job done", id)
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
		pm := newProgressMeter()
		cfg.Progress = func(p fleet.Progress) error {
			pm.update(p)
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
