// Package chaos is the cluster stack's deterministic fault-injection
// harness. It wraps a delivery.Conn with seeded message-level faults
// (drop, delayed delivery, duplication, partition windows) and a
// delivery.Service with scheduled coordinator kill-restart points, so
// an e2e test can run the full coordinator/runner conversation under a
// reproducible failure schedule and assert the one property the whole
// design promises: the merged report is byte-identical to the clean
// run's, no matter which messages were lost, duplicated, or delayed,
// and no matter when the coordinator was killed.
//
// Every decision is a pure function of (Plan.Seed, call sequence
// number), so a failing schedule replays exactly — there is no
// math/rand state and no wall-clock dependence anywhere in the
// harness.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord/delivery"
	"repro/internal/fleet"
)

// ErrInjected marks a fault this package injected. It deliberately is
// NOT one of the delivery sentinels: clients must treat it as a
// transport failure and retry, which is exactly the code path the
// harness exists to exercise.
var ErrInjected = errors.New("chaos: injected fault")

// Window is a half-open interval [From, To) of a connection's call
// sequence during which every call fails — a partition as seen from
// one client.
type Window struct {
	From, To int
}

// Plan is a seeded fault schedule for one connection. Probabilities
// are per call, in [0,1]; zero values inject nothing.
type Plan struct {
	// Seed keys every decision; two conns with the same plan misbehave
	// identically.
	Seed int64
	// Drop is P(request lost before the coordinator sees it).
	Drop float64
	// DropReply is P(request delivered, reply lost) — the ambiguous
	// failure that forces server-side deduplication.
	DropReply float64
	// Dup is P(request delivered twice) — a retransmission racing its
	// original.
	Dup float64
	// Delay bounds a deterministic per-call delivery delay (0 = none).
	Delay time.Duration
	// Partitions are call-sequence windows during which every call
	// fails.
	Partitions []Window
}

// splitmix64 is the decision hash (same mix the delivery backoff
// jitter uses).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Conn wraps an inner delivery.Conn with the plan's faults.
type Conn struct {
	inner delivery.Conn
	plan  Plan
	seq   atomic.Uint64
}

// Wrap returns a Conn injecting plan's faults around inner.
func Wrap(inner delivery.Conn, plan Plan) *Conn {
	return &Conn{inner: inner, plan: plan}
}

// roll returns the deterministic uniform [0,1) draw for (seq, salt).
func (c *Conn) roll(seq, salt uint64) float64 {
	u := splitmix64(uint64(c.plan.Seed)<<16 ^ seq<<4 ^ salt)
	return float64(u>>11) / (1 << 53)
}

// step runs one faulted call. Order mirrors a real network: partition
// first, then delivery delay, then request loss, then duplication,
// then reply loss.
func (c *Conn) step(ctx context.Context, call func(context.Context) error) error {
	seq := c.seq.Add(1)
	for _, w := range c.plan.Partitions {
		if int(seq) >= w.From && int(seq) < w.To {
			return fmt.Errorf("%w: partitioned (call %d in window [%d,%d))", ErrInjected, seq, w.From, w.To)
		}
	}
	if c.plan.Delay > 0 {
		d := time.Duration(float64(c.plan.Delay) * c.roll(seq, 1))
		if d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
	}
	if c.plan.Drop > 0 && c.roll(seq, 2) < c.plan.Drop {
		return fmt.Errorf("%w: request dropped (call %d)", ErrInjected, seq)
	}
	if c.plan.Dup > 0 && c.roll(seq, 3) < c.plan.Dup {
		// The duplicate delivers first and its outcome is discarded —
		// the client only ever sees the second delivery's answer.
		call(ctx)
	}
	err := call(ctx)
	if c.plan.DropReply > 0 && c.roll(seq, 4) < c.plan.DropReply {
		return fmt.Errorf("%w: reply dropped (call %d; the coordinator saw the request)", ErrInjected, seq)
	}
	return err
}

func (c *Conn) Submit(ctx context.Context, job fleet.Job) error {
	return c.step(ctx, func(ctx context.Context) error { return c.inner.Submit(ctx, job) })
}

func (c *Conn) Claim(ctx context.Context, runner string) (delivery.Task, error) {
	var task delivery.Task
	err := c.step(ctx, func(ctx context.Context) error {
		var e error
		task, e = c.inner.Claim(ctx, runner)
		return e
	})
	if err != nil {
		return delivery.Task{}, err
	}
	return task, nil
}

func (c *Conn) Heartbeat(ctx context.Context, runner string, beat delivery.Beat) error {
	return c.step(ctx, func(ctx context.Context) error { return c.inner.Heartbeat(ctx, runner, beat) })
}

func (c *Conn) Complete(ctx context.Context, runner string, shard int, p *fleet.Partial) error {
	return c.step(ctx, func(ctx context.Context) error { return c.inner.Complete(ctx, runner, shard, p) })
}

func (c *Conn) Fail(ctx context.Context, runner string, shard, attempt int, msg string) error {
	return c.step(ctx, func(ctx context.Context) error { return c.inner.Fail(ctx, runner, shard, attempt, msg) })
}

func (c *Conn) Status(ctx context.Context) (delivery.Status, error) {
	var st delivery.Status
	err := c.step(ctx, func(ctx context.Context) error {
		var e error
		st, e = c.inner.Status(ctx)
		return e
	})
	if err != nil {
		return delivery.Status{}, err
	}
	return st, nil
}

func (c *Conn) Result(ctx context.Context, canonical bool) ([]byte, error) {
	var b []byte
	err := c.step(ctx, func(ctx context.Context) error {
		var e error
		b, e = c.inner.Result(ctx, canonical)
		return e
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

func (c *Conn) Close() error { return c.inner.Close() }

var _ delivery.Conn = (*Conn)(nil)

// Restarter wraps a delivery.Service with scheduled coordinator
// kill-restart points: at each scheduled call count the current
// service "crashes" — odd kills before the call is delivered, even
// kills after (the reply is lost either way) — and rebuild replaces it,
// typically with coord.Recover over the crashed coordinator's journal.
// All calls are serialized through one mutex, so the kill schedule is
// deterministic for a deterministic call sequence and exactly
// reproducible under -race.
type Restarter struct {
	mu      sync.Mutex
	inner   delivery.Service
	rebuild func(prev delivery.Service) delivery.Service
	killAt  []int
	calls   int
	kills   int
}

// NewRestarter schedules kills at the given ascending call counts.
func NewRestarter(initial delivery.Service, rebuild func(prev delivery.Service) delivery.Service, killAt ...int) *Restarter {
	return &Restarter{inner: initial, rebuild: rebuild, killAt: killAt}
}

// Current returns the live service instance (for test assertions that
// must not advance the kill schedule).
func (r *Restarter) Current() delivery.Service {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inner
}

// Kills reports how many scheduled kills have fired.
func (r *Restarter) Kills() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kills
}

func (r *Restarter) call(f func(svc delivery.Service) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	if len(r.killAt) > 0 && r.calls >= r.killAt[0] {
		r.killAt = r.killAt[1:]
		r.kills++
		if r.kills%2 == 0 {
			// Crash after delivery: the coordinator processed (and
			// journaled) the call, but the reply died with it.
			f(r.inner)
		}
		r.inner = r.rebuild(r.inner)
		return fmt.Errorf("%w: coordinator killed (call %d, kill %d)", ErrInjected, r.calls, r.kills)
	}
	return f(r.inner)
}

func (r *Restarter) Submit(job fleet.Job) error {
	return r.call(func(svc delivery.Service) error { return svc.Submit(job) })
}

func (r *Restarter) Claim(runner string) (delivery.Task, error) {
	var task delivery.Task
	err := r.call(func(svc delivery.Service) error {
		var e error
		task, e = svc.Claim(runner)
		return e
	})
	if err != nil {
		return delivery.Task{}, err
	}
	return task, nil
}

func (r *Restarter) Heartbeat(runner string, beat delivery.Beat) error {
	return r.call(func(svc delivery.Service) error { return svc.Heartbeat(runner, beat) })
}

func (r *Restarter) Complete(runner string, shard int, p *fleet.Partial) error {
	return r.call(func(svc delivery.Service) error { return svc.Complete(runner, shard, p) })
}

func (r *Restarter) Fail(runner string, shard, attempt int, msg string) error {
	return r.call(func(svc delivery.Service) error { return svc.Fail(runner, shard, attempt, msg) })
}

func (r *Restarter) Status() delivery.Status {
	var st delivery.Status
	r.call(func(svc delivery.Service) error {
		st = svc.Status()
		return nil
	})
	return st
}

func (r *Restarter) Result(canonical bool) ([]byte, error) {
	var b []byte
	err := r.call(func(svc delivery.Service) error {
		var e error
		b, e = svc.Result(canonical)
		return e
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

var _ delivery.Service = (*Restarter)(nil)
