package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord/delivery"
	"repro/internal/fleet"
)

// span is one timed interval of a traced repetition. Spans nest
// workload → phase (run, resume, merge, report) → call, by Parent.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"` // 0 while open; a lost lease leaves a shard open
	call   bool
}

// recorder keeps a traced repetition's spans in memory; they are
// written out once the repetition ends. A nil *recorder records nothing,
// which is how untraced repetitions run the same code.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	phase int64 // parent of new call spans
}

const rootSpan = 1

func newRecorder(workload string) *recorder {
	return &recorder{
		t0:    time.Now(),
		spans: []span{{Name: "workload:" + workload, ID: rootSpan}},
		phase: rootSpan,
	}
}

// open starts a span under parent (the current phase when parent is 0)
// and returns the function that ends it.
func (r *recorder) open(name string, parent int64) (id int64, end func()) {
	start := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	call := parent == 0
	if call {
		parent = r.phase
	}
	id = int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: start, call: call})
	r.mu.Unlock()
	return id, func() {
		end := time.Since(r.t0).Nanoseconds()
		r.mu.Lock()
		r.spans[id-1].End = end
		r.mu.Unlock()
	}
}

// call times one call into a layer's API under the current phase.
func (r *recorder) call(name string) func() {
	if r == nil {
		return func() {}
	}
	_, end := r.open(name, 0)
	return end
}

// enterPhase opens a phase span and makes it the parent of the calls
// recorded until it ends.
func (r *recorder) enterPhase(name string) func() {
	id, end := r.open(name, rootSpan)
	r.mu.Lock()
	r.phase = id
	r.mu.Unlock()
	return func() {
		end()
		r.mu.Lock()
		r.phase = rootSpan
		r.mu.Unlock()
	}
}

// close ends the workload span and writes every span as NDJSON.
func (r *recorder) close(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[0].End = time.Since(r.t0).Nanoseconds()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the ended call spans' durations in milliseconds by
// name.
func (r *recorder) durations() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range r.spans {
		if s.call && s.End > 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// epochs returns a fleet Progress hook that records each checkpoint
// epoch, from the previous epoch file's publication (or the call) to
// this one's, as a fleet.epoch span.
func (r *recorder) epochs() func(fleet.Progress) error {
	end := r.call("fleet.epoch")
	return func(p fleet.Progress) error {
		if p.Checkpointed {
			end()
			end = r.call("fleet.epoch")
		}
		return nil
	}
}

// timedScenario records every device build as a fleet.build span.
type timedScenario struct {
	fleet.Scenario
	rec *recorder
}

func (s timedScenario) Build(d *fleet.Device) error {
	defer s.rec.call("fleet.build")()
	return s.Scenario.Build(d)
}

// timedProvisioner keeps a provisioning scenario's per-device hardware
// draw visible through the wrapper.
type timedProvisioner struct {
	timedScenario
	fleet.Provisioner
}

// traceScenario wraps sc so its builds are recorded, forwarding Name and
// Provision unchanged.
func traceScenario(sc fleet.Scenario, rec *recorder) fleet.Scenario {
	ts := timedScenario{Scenario: sc, rec: rec}
	if p, ok := sc.(fleet.Provisioner); ok {
		return timedProvisioner{timedScenario: ts, Provisioner: p}
	}
	return ts
}

// service is the coordinator as the HTTP handler sees it: it keeps every
// accepted partial for the benchmark's own merge check and, when
// traced, records server-side call time (the journal fsync, and the
// final merge inside the last Complete).
type service struct {
	delivery.Service
	rec *recorder

	mu    sync.Mutex
	parts map[int]*fleet.Partial
}

func (s *service) Claim(runner string) (delivery.Task, error) {
	defer s.rec.call("coord.claim")()
	return s.Service.Claim(runner)
}

func (s *service) Complete(runner string, shard int, p *fleet.Partial) error {
	end := s.rec.call("coord.complete")
	err := s.Service.Complete(runner, shard, p)
	end()
	if err == nil {
		s.mu.Lock()
		s.parts[shard] = p
		s.mu.Unlock()
	}
	return err
}

// conn is one runner's client connection: it counts transport failures
// of claims and completions (errors that are not protocol answers and
// not the runner shutting down) and, when traced, records client call
// time and each shard's time from claim to Complete. Heartbeats pass
// through: a shard here takes milliseconds against a one-second beat.
type conn struct {
	delivery.Conn
	rec    *recorder
	errors *atomic.Int64

	mu     sync.Mutex
	claims map[int]func() // open runner.shard spans by shard
}

func (c *conn) note(ctx context.Context, err error) {
	if err != nil && !delivery.IsProtocol(err) && ctx.Err() == nil {
		c.errors.Add(1)
	}
}

func (c *conn) Claim(ctx context.Context, runner string) (delivery.Task, error) {
	end := c.rec.call("delivery.claim")
	task, err := c.Conn.Claim(ctx, runner)
	end()
	c.note(ctx, err)
	if err == nil && c.rec != nil {
		c.mu.Lock()
		c.claims[task.Shard] = c.rec.call("runner.shard")
		c.mu.Unlock()
	}
	return task, err
}

func (c *conn) Complete(ctx context.Context, runner string, shard int, p *fleet.Partial) error {
	c.mu.Lock()
	if end, ok := c.claims[shard]; ok {
		end()
		delete(c.claims, shard)
	}
	c.mu.Unlock()
	end := c.rec.call("delivery.complete")
	err := c.Conn.Complete(ctx, runner, shard, p)
	end()
	c.note(ctx, err)
	return err
}
