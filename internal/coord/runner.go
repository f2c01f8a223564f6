package coord

import (
	"context"
	"errors"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/coord/delivery"
	"repro/internal/fleet"
)

// Runner is the worker side of the service: claim a shard, simulate
// it, stream the partial back, repeat. Heartbeats ride a side
// goroutine fed from the shard's Progress stream; if the coordinator
// answers one with ErrLeaseLost the in-flight simulation is aborted
// through the same Progress callback (the admission window stops
// dispatching within one reduced device), so a superseded runner stops
// burning CPU on work someone else now owns.
//
// A runner never gives up on an unreachable coordinator: claim
// failures back off under the shared delivery.Backoff policy (so a
// fleet of runners rides out a coordinator restart or partition and
// reattaches when it returns), and a finished shard's Complete is
// retried until it is delivered or the context ends — the partial in
// hand may be the last copy of hours of simulation. A partial the
// coordinator refuses is not retried: the runner reports the attempt
// failed with the refusal's text, and the coordinator charges it.
type Runner struct {
	// ID names this runner in leases and logs.
	ID string
	// Conn is the delivery connection to the coordinator.
	Conn delivery.Conn
	// Workers bounds the simulation worker pool (0 = one per CPU).
	Workers int
	// Poll is the idle wait between ErrNoWork claims (default 200ms).
	Poll time.Duration
	// Backoff is the retry policy for transport failures (zero =
	// delivery defaults; Seed defaults to a hash of ID so each runner
	// jitters differently but reproducibly).
	Backoff delivery.Backoff
	// WarnEvery rate-limits the coordinator-unreachable warning line
	// (default 30s): one line per window with a suppressed-failure
	// count, not one line per failed claim.
	WarnEvery time.Duration
	// OnProgress, when set, observes every Progress update of every
	// shard this runner executes (tests use it to induce deaths; the
	// CLI feeds its progress line from it).
	OnProgress func(shard int, p fleet.Progress)
	// Logf, when set, receives one line per task event.
	Logf func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

func (r *Runner) poll() time.Duration {
	if r.Poll > 0 {
		return r.Poll
	}
	return 200 * time.Millisecond
}

// backoff returns the runner's retry policy with its ID-derived jitter
// seed applied.
func (r *Runner) backoff() delivery.Backoff {
	b := r.Backoff
	if b.Seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(r.ID))
		b.Seed = int64(h.Sum64() >> 1)
	}
	return b
}

// callTimeout is the per-attempt deadline for direct (non-Retry)
// calls.
func (r *Runner) callTimeout() time.Duration {
	if r.Backoff.CallTimeout > 0 {
		return r.Backoff.CallTimeout
	}
	return 30 * time.Second
}

// Run claims and executes shards until the job is done (nil) or the
// context ends. Transport failures are ridden out indefinitely with
// backoff — reattaching to a restarted coordinator is the runner's
// job, not the operator's.
func (r *Runner) Run(ctx context.Context) error {
	b := r.backoff()
	warnEvery := r.WarnEvery
	if warnEvery <= 0 {
		warnEvery = 30 * time.Second
	}
	failures := 0   // consecutive transport failures
	suppressed := 0 // warnings withheld since the last emitted one
	var lastWarn time.Time
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		cctx, cancel := context.WithTimeout(ctx, r.callTimeout())
		task, err := r.Conn.Claim(cctx, r.ID)
		cancel()
		switch {
		case errors.Is(err, delivery.ErrDone):
			return nil
		case errors.Is(err, delivery.ErrNoWork):
			failures, suppressed = 0, 0
			if err := sleep(ctx, r.poll()); err != nil {
				return err
			}
			continue
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			failures++
			now := time.Now()
			if lastWarn.IsZero() || now.Sub(lastWarn) >= warnEvery {
				if suppressed > 0 {
					r.logf("runner %s: coordinator unreachable, retrying with backoff (%d failures suppressed since last warning; latest: %v)",
						r.ID, suppressed, err)
				} else {
					r.logf("runner %s: coordinator unreachable, retrying with backoff: %v", r.ID, err)
				}
				lastWarn, suppressed = now, 0
			} else {
				suppressed++
			}
			if err := sleep(ctx, b.Delay(failures)); err != nil {
				return err
			}
			continue
		}
		failures, suppressed, lastWarn = 0, 0, time.Time{}
		if err := r.runTask(ctx, task); err != nil {
			return err
		}
	}
}

// runTask executes one leased shard. Only a context cancellation
// propagates as an error; shard failures are reported to the
// coordinator (which owns the retry budget) and lost leases are simply
// abandoned.
func (r *Runner) runTask(ctx context.Context, task delivery.Task) error {
	lo, hi := task.Job.ShardRange(task.Shard)
	r.logf("runner %s: shard %d [%d,%d) attempt %d (resume %v)",
		r.ID, task.Shard, lo, hi, task.Attempt, task.Resume)

	var mu sync.Mutex
	beat := delivery.Beat{Shard: task.Shard, LastCheckpoint: -1}

	// The heartbeat goroutine renews the lease on the coordinator's
	// cadence and closes lost when the lease is gone.
	lost := make(chan struct{})
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	interval := time.Duration(task.HeartbeatMS) * time.Millisecond
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(hbDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
			}
			mu.Lock()
			b := beat
			mu.Unlock()
			hctx, cancel := context.WithTimeout(ctx, r.callTimeout())
			err := r.Conn.Heartbeat(hctx, r.ID, b)
			cancel()
			if errors.Is(err, delivery.ErrLeaseLost) || errors.Is(err, delivery.ErrDone) {
				close(lost)
				return
			}
			// A transport hiccup is survivable: the lease outlasts
			// several missed beats, and the next beat retries.
		}
	}()

	run := fleet.ShardRun{
		Job:     task.Job,
		Shard:   task.Shard,
		Resume:  task.Resume,
		Workers: r.Workers,
		Warnf:   r.Logf,
		Progress: func(p fleet.Progress) error {
			mu.Lock()
			beat.DevicesDone = p.Done
			beat.SimDoneMS = int64(p.SimDone())
			beat.LastCheckpoint = p.LastCheckpoint
			mu.Unlock()
			if r.OnProgress != nil {
				r.OnProgress(task.Shard, p)
			}
			select {
			case <-lost:
				return delivery.ErrLeaseLost
			default:
			}
			return ctx.Err()
		},
	}
	part, err := run.Run()
	close(hbStop)
	<-hbDone

	switch {
	case err == nil:
		// The partial may be the only copy of this shard's work: retry
		// its delivery until the coordinator answers (success or a
		// protocol outcome) or the runner is shut down.
		cerr := delivery.Retry(ctx, r.backoff(), func(cctx context.Context) error {
			return r.Conn.Complete(cctx, r.ID, task.Shard, part)
		})
		switch {
		case cerr == nil:
			r.logf("runner %s: shard %d complete", r.ID, task.Shard)
		case errors.Is(cerr, delivery.ErrLeaseLost), errors.Is(cerr, delivery.ErrDone):
			r.logf("runner %s: shard %d finished but lease was gone", r.ID, task.Shard)
		case errors.Is(cerr, delivery.ErrRefused):
			r.logf("runner %s: shard %d result refused: %v", r.ID, task.Shard, cerr)
			r.fail(ctx, task, cerr.Error())
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			r.logf("runner %s: shard %d result undeliverable: %v", r.ID, task.Shard, cerr)
		}
		return nil
	case errors.Is(err, delivery.ErrLeaseLost):
		r.logf("runner %s: shard %d abandoned (lease lost)", r.ID, task.Shard)
		return nil
	case ctx.Err() != nil:
		return ctx.Err()
	default:
		r.logf("runner %s: shard %d failed: %v", r.ID, task.Shard, err)
		r.fail(ctx, task, err.Error())
		return nil
	}
}

// fail reports the task's attempt failed with msg. Bounded best
// effort: lease expiry covers us if this doesn't arrive, so a few
// retries are worth it but forever is not.
func (r *Runner) fail(ctx context.Context, task delivery.Task, msg string) {
	fb := r.backoff()
	fb.MaxAttempts = 5
	delivery.Retry(ctx, fb, func(cctx context.Context) error {
		return r.Conn.Fail(cctx, r.ID, task.Shard, task.Attempt, msg)
	})
}

// sleep waits d or until the context ends.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
