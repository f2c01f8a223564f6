// Package coord turns the fleet's shard layer into a small
// fleet-as-a-service: a Coordinator owns a submitted Job's shard
// queue and leases shards to runners over any delivery mechanism
// (work-stealing: an idle runner claims the next pending shard, so a
// fast machine simply ends up executing more shards); a Runner is the
// claim → simulate → stream-partials-back loop. Fault tolerance is
// reconfiguration, not consensus: a runner that stops heartbeating
// forfeits its lease, and the shard is reassigned with Resume set, so
// the next runner continues from the newest complete epoch checkpoint
// — losing a runner costs at most one checkpoint interval of
// re-simulation, and because resumed shard partials are byte-identical
// to uninterrupted ones, the merged report is too.
//
// The coordinator itself is crash-safe when the job carries a
// checkpoint dir: every accepted transition is journaled there
// (write-ahead, see journal.go) and Recover replays the journal into
// an identical coordinator, so a kill -9 mid-job costs a restart plus
// the runners' retry backoff, never the job.
package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/coord/delivery"
	"repro/internal/fleet"
	"repro/internal/units"
)

// Options tunes a Coordinator. The zero value gets sane defaults.
type Options struct {
	// Lease is how long a claimed shard may go without a heartbeat
	// before it is forfeited and reassigned (default 4× Heartbeat).
	Lease time.Duration
	// Heartbeat is the beat cadence handed to runners (default 1s).
	Heartbeat time.Duration
	// MaxAttempts bounds leases per shard; exhausting it fails the job
	// terminally (default 3).
	MaxAttempts int
	// Now overrides the clock (tests drive lease expiry with it).
	Now func() time.Time
	// Logf, when set, receives one line per lease event.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Heartbeat <= 0 {
		o.Heartbeat = time.Second
	}
	if o.Lease <= 0 {
		o.Lease = 4 * o.Heartbeat
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// shardState is the coordinator's record of one shard of the plan.
type shardState struct {
	lo, hi  int
	state   string // "pending" | "running" | "done"
	runner  string
	expiry  time.Time
	attempt int
	// resume is set once a lease has been forfeited or failed: the next
	// assignment asks the runner to continue from epoch checkpoints.
	resume bool

	// completedBy / failedBy+failedAt deduplicate retried deliveries: a
	// runner whose Complete or Fail acknowledgement was lost re-sends
	// the identical message, and the duplicate must succeed silently
	// instead of surfacing ErrLeaseLost.
	completedBy string
	failedBy    string
	failedAt    int

	devicesDone    int
	simDoneMS      int64
	lastCheckpoint int

	partial *fleet.Partial
}

// Coordinator accepts one Job, leases its shards to runners, and
// merges the returned partials into the final report. It implements
// delivery.Service, so it sits unchanged behind every delivery
// mechanism.
type Coordinator struct {
	opts Options

	mu       sync.Mutex
	job      *fleet.Job
	jobJSON  []byte // the installed job's wire form (Submit idempotency key)
	jnl      *journal
	start    time.Time
	shards   []shardState
	remain   int // shards not yet done
	finished bool
	failed   error
	report   fleet.Report
	doneCh   chan struct{}
}

// New returns an idle coordinator awaiting a Submit.
func New(opts Options) *Coordinator {
	return &Coordinator{opts: opts.withDefaults(), doneCh: make(chan struct{})}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// installJob seeds the shard table for job, whose wire form is
// jobJSON. Caller holds c.mu.
func (c *Coordinator) installJob(job fleet.Job, jobJSON []byte) {
	c.job, c.jobJSON = &job, jobJSON
	c.start = c.opts.Now()
	c.shards = make([]shardState, job.Shards)
	c.remain = job.Shards
	for i := range c.shards {
		lo, hi := job.ShardRange(i)
		c.shards[i] = shardState{lo: lo, hi: hi, state: "pending", lastCheckpoint: -1, failedAt: -1}
	}
	c.logf("coord: job submitted: %v", job)
}

// Submit installs the job. A coordinator runs exactly one job;
// re-submitting the identical job is an idempotent success (a
// retrying submitter whose acknowledgement was lost must not error),
// while a different job is rejected. When the job carries a checkpoint
// dir, the journal is created there first — a journal from a finished
// previous job is discarded, an unfinished one refuses the Submit and
// points at `serve -recover`.
func (c *Coordinator) Submit(job fleet.Job) error {
	if err := job.Validate(); err != nil {
		return err
	}
	jobJSON, err := json.Marshal(job)
	if err != nil {
		return fmt.Errorf("coord: marshal job: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.job != nil {
		if bytes.Equal(jobJSON, c.jobJSON) {
			return nil
		}
		return fmt.Errorf("coord: a different job is already submitted")
	}
	if job.CheckpointDir != "" {
		if err := os.MkdirAll(job.CheckpointDir, 0o755); err != nil {
			return fmt.Errorf("coord: checkpoint dir: %w", err)
		}
		path := JournalPath(job.CheckpointDir)
		if _, err := os.Stat(path); err == nil {
			finished, ferr := journalFinished(c.opts, path)
			if ferr != nil {
				return ferr
			}
			if !finished {
				return fmt.Errorf("coord: %s holds an unfinished job; restart with 'serve -recover %s' to resume it, or remove the journal to abandon it",
					path, job.CheckpointDir)
			}
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("coord: discard finished journal: %w", err)
			}
		}
		jnl, err := openJournal(path, os.O_CREATE|os.O_TRUNC)
		if err != nil {
			return err
		}
		if err := jnl.append(jrec{kind: jrSubmit, job: jobJSON}, true); err != nil {
			jnl.close()
			return err
		}
		c.jnl = jnl
	}
	c.installJob(job, jobJSON)
	return nil
}

// journalFinished replays the journal at path on a scratch coordinator
// and reports whether its job ended (done or terminally failed). An
// unreadable journal is reported as unfinished-and-unremovable via the
// returned error.
func journalFinished(opts Options, path string) (bool, error) {
	recs, _, terr := readJournal(path)
	if len(recs) == 0 {
		return false, fmt.Errorf("coord: existing journal %s is unreadable (%v); remove it to start over", path, terr)
	}
	probe := opts
	probe.Logf = nil
	c, err := replayState(probe, recs)
	if err != nil {
		return false, fmt.Errorf("coord: existing journal %s does not replay (%v); remove it to start over", path, err)
	}
	return c.finished || c.failed != nil, nil
}

// fail ends the job terminally. Caller holds c.mu.
func (c *Coordinator) fail(err error) {
	if c.finished || c.failed != nil {
		return
	}
	c.failed = err
	c.logf("coord: job failed: %v", err)
	close(c.doneCh)
}

// expire forfeits leases whose runners stopped heartbeating. Caller
// holds c.mu. Expiries are not journaled: replay re-derives them from
// the recovered clock, giving every recovered lease one fresh lease
// interval to re-heartbeat before it is forfeited.
func (c *Coordinator) expire(now time.Time) {
	if c.job == nil || c.finished || c.failed != nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		if s.state != "running" || !now.After(s.expiry) {
			continue
		}
		c.logf("coord: shard %d lease expired (runner %s, attempt %d)", i, s.runner, s.attempt)
		if s.attempt >= c.opts.MaxAttempts {
			c.fail(fmt.Errorf("coord: shard %d failed %d times (last runner %s lost)",
				i, s.attempt, s.runner))
			return
		}
		s.state, s.runner, s.resume = "pending", "", true
	}
}

// applyGrant leases shard to runner. attempt is the 0-based lease key
// (the shard's attempt count before this grant). Caller holds c.mu.
func (c *Coordinator) applyGrant(shard int, runner string, attempt int, resume bool, now time.Time) {
	s := &c.shards[shard]
	s.state, s.runner, s.resume = "running", runner, resume
	s.attempt = attempt + 1
	s.expiry = now.Add(c.opts.Lease)
	c.logf("coord: shard %d [%d,%d) leased to %s (attempt %d, resume %v)",
		shard, s.lo, s.hi, runner, s.attempt, s.resume)
}

// applyBeat records shard progress and renews the lease. Caller holds
// c.mu.
func (c *Coordinator) applyBeat(beat delivery.Beat, now time.Time) {
	s := &c.shards[beat.Shard]
	s.expiry = now.Add(c.opts.Lease)
	s.devicesDone = beat.DevicesDone
	s.simDoneMS = beat.SimDoneMS
	s.lastCheckpoint = beat.LastCheckpoint
}

// applyComplete marks shard done with p and merges the report when it
// was the last one. Caller holds c.mu.
func (c *Coordinator) applyComplete(shard int, runner string, p *fleet.Partial) {
	s := &c.shards[shard]
	s.state, s.runner, s.partial = "done", "", p
	s.completedBy = runner
	s.devicesDone = s.hi - s.lo
	s.simDoneMS = int64(units.Time(s.hi-s.lo) * c.job.Duration)
	c.remain--
	c.logf("coord: shard %d completed by %s (%d shards left)", shard, runner, c.remain)
	if c.remain > 0 {
		return
	}
	parts := make([]*fleet.Partial, len(c.shards))
	for i := range c.shards {
		parts[i] = c.shards[i].partial
	}
	rep, err := c.job.Merge(parts)
	if err != nil {
		c.fail(err)
		return
	}
	c.report, c.finished = rep, true
	c.logf("coord: job done, report merged")
	close(c.doneCh)
}

// applyFail charges a failed attempt against shard and requeues it (or
// fails the job terminally). Caller holds c.mu.
func (c *Coordinator) applyFail(shard int, runner string, attempt int, msg string) {
	s := &c.shards[shard]
	s.failedBy, s.failedAt = runner, attempt
	c.logf("coord: shard %d attempt %d failed on %s: %s", shard, s.attempt, runner, msg)
	if s.attempt >= c.opts.MaxAttempts {
		c.fail(fmt.Errorf("coord: shard %d failed %d times, last error from %s: %s",
			shard, s.attempt, runner, msg))
		return
	}
	s.state, s.runner, s.resume = "pending", "", true
}

// Claim leases the next pending shard to the named runner.
func (c *Coordinator) Claim(runner string) (delivery.Task, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.expire(now)
	if c.finished || c.failed != nil {
		return delivery.Task{}, delivery.ErrDone
	}
	if c.job == nil {
		return delivery.Task{}, delivery.ErrNoWork
	}
	for i := range c.shards {
		s := &c.shards[i]
		if s.state != "pending" {
			continue
		}
		if c.jnl != nil {
			rec := jrec{kind: jrGrant, shard: i, runner: runner, attempt: s.attempt, resume: s.resume}
			if err := c.jnl.append(rec, true); err != nil {
				return delivery.Task{}, err
			}
		}
		c.applyGrant(i, runner, s.attempt, s.resume, now)
		return delivery.Task{
			Job:         *c.job,
			Shard:       i,
			Resume:      s.resume,
			Attempt:     s.attempt - 1,
			HeartbeatMS: c.opts.Heartbeat.Milliseconds(),
		}, nil
	}
	return delivery.Task{}, delivery.ErrNoWork
}

// Heartbeat renews the runner's lease and records the shard's live
// progress.
func (c *Coordinator) Heartbeat(runner string, beat delivery.Beat) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.expire(now)
	if c.finished || c.failed != nil {
		return delivery.ErrDone
	}
	if c.job == nil || beat.Shard < 0 || beat.Shard >= len(c.shards) {
		return delivery.ErrLeaseLost
	}
	s := &c.shards[beat.Shard]
	if s.state != "running" || s.runner != runner {
		return delivery.ErrLeaseLost
	}
	if c.jnl != nil {
		rec := jrec{kind: jrBeat, shard: beat.Shard, devicesDone: beat.DevicesDone,
			simDoneMS: beat.SimDoneMS, lastCheckpoint: beat.LastCheckpoint}
		// Beats are appended without fsync: losing the tail costs a stale
		// progress counter after recovery, never correctness.
		if err := c.jnl.append(rec, false); err != nil {
			return err
		}
	}
	c.applyBeat(beat, now)
	return nil
}

// Complete delivers a finished shard's partial. The first valid
// completion wins: a runner whose lease was forfeited but which
// finished anyway delivers an identical partial (resumed shard runs
// are byte-identical), so its late result is accepted as long as the
// shard is still open. A retried duplicate from the completing runner
// is an idempotent success.
func (c *Coordinator) Complete(runner string, shard int, p *fleet.Partial) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished || c.failed != nil {
		return delivery.ErrDone
	}
	if c.job == nil || shard < 0 || shard >= len(c.shards) {
		return delivery.ErrLeaseLost
	}
	s := &c.shards[shard]
	if s.state == "done" {
		if runner != "" && s.completedBy == runner {
			return nil
		}
		return delivery.ErrLeaseLost
	}
	if err := c.job.CheckPartial(shard, p); err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	if c.jnl != nil {
		pj, err := p.JSON()
		if err != nil {
			return err
		}
		if err := c.jnl.append(jrec{kind: jrComplete, shard: shard, runner: runner, partial: pj}, true); err != nil {
			return err
		}
	}
	c.applyComplete(shard, runner, p)
	return nil
}

// Fail reports a shard attempt that errored. The attempt key is the
// Task.Attempt of the failing lease: a genuine failure is charged
// against MaxAttempts and requeues the shard (with Resume) or fails
// the job terminally; a retried duplicate of an attempt already
// charged is an idempotent success.
func (c *Coordinator) Fail(runner string, shard, attempt int, msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished || c.failed != nil {
		return delivery.ErrDone
	}
	if c.job == nil || shard < 0 || shard >= len(c.shards) {
		return delivery.ErrLeaseLost
	}
	s := &c.shards[shard]
	if s.state == "running" && s.runner == runner && attempt == s.attempt-1 {
		if c.jnl != nil {
			rec := jrec{kind: jrFail, shard: shard, runner: runner, attempt: attempt, msg: msg}
			if err := c.jnl.append(rec, true); err != nil {
				return err
			}
		}
		c.applyFail(shard, runner, attempt, msg)
		return nil
	}
	if runner != "" && s.failedBy == runner && s.failedAt == attempt {
		return nil
	}
	return delivery.ErrLeaseLost
}

// Status snapshots the run for /status consumers.
func (c *Coordinator) Status() delivery.Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.expire(now)
	st := delivery.Status{Done: c.finished}
	if c.failed != nil {
		st.Failed = c.failed.Error()
	}
	if c.job == nil {
		return st
	}
	job := *c.job
	st.Submitted = true
	st.Job = &job
	st.Devices = job.Devices
	st.SimTotalMS = int64(job.SimTotal())
	st.ElapsedMS = now.Sub(c.start).Milliseconds()
	st.Shards = make([]delivery.ShardStatus, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		st.DevicesDone += s.devicesDone
		st.SimDoneMS += s.simDoneMS
		st.Shards[i] = delivery.ShardStatus{
			Shard:          i,
			RangeLo:        s.lo,
			RangeHi:        s.hi,
			State:          s.state,
			Runner:         s.runner,
			Attempts:       s.attempt,
			DevicesDone:    s.devicesDone,
			SimDoneMS:      s.simDoneMS,
			LastCheckpoint: s.lastCheckpoint,
		}
	}
	return st
}

// Result renders the merged report's JSON (the same bytes cinder-fleet
// -json emits for a single-process run of the job).
func (c *Coordinator) Result(canonical bool) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed != nil {
		return nil, c.failed
	}
	if !c.finished {
		return nil, delivery.ErrNotDone
	}
	if canonical {
		return c.report.CanonicalJSON(false)
	}
	return c.report.JSON(false)
}

// Done is closed when the job completes or fails terminally.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Wait blocks until the job ends and returns the merged report (or
// the terminal error).
func (c *Coordinator) Wait(ctx context.Context) (fleet.Report, error) {
	select {
	case <-ctx.Done():
		return fleet.Report{}, ctx.Err()
	case <-c.doneCh:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed != nil {
		return fleet.Report{}, c.failed
	}
	return c.report, nil
}

// Close releases the coordinator's journal file handle (if any). It
// does not end or abandon the job.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jnl == nil {
		return nil
	}
	err := c.jnl.close()
	c.jnl = nil
	return err
}

// replayState builds a coordinator from a journal's records without
// opening a journal for further appends. The first record must be the
// submit; later records are applied through the same apply* helpers
// the live paths use, so replayed state is bit-for-bit the state the
// crashed coordinator held (up to lease expiries, which are re-derived
// from the clock).
func replayState(opts Options, recs []jrec) (*Coordinator, error) {
	if len(recs) == 0 || recs[0].kind != jrSubmit {
		return nil, fmt.Errorf("coord: journal does not begin with a job record")
	}
	job, err := fleet.ParseJob(recs[0].job)
	if err != nil {
		return nil, fmt.Errorf("coord: journal job spec: %w", err)
	}
	c := New(opts)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.installJob(job, recs[0].job)
	now := c.opts.Now()
	for i, rec := range recs[1:] {
		if rec.kind != jrSubmit && (rec.shard < 0 || rec.shard >= len(c.shards)) {
			return nil, fmt.Errorf("coord: journal record %d references shard %d of %d", i+1, rec.shard, len(c.shards))
		}
		switch rec.kind {
		case jrSubmit:
			return nil, fmt.Errorf("coord: journal record %d is a second job record", i+1)
		case jrGrant:
			c.applyGrant(rec.shard, rec.runner, rec.attempt, rec.resume, now)
		case jrBeat:
			c.applyBeat(delivery.Beat{Shard: rec.shard, DevicesDone: rec.devicesDone,
				SimDoneMS: rec.simDoneMS, LastCheckpoint: rec.lastCheckpoint}, now)
		case jrComplete:
			p, err := fleet.ParsePartial(rec.partial)
			if err != nil {
				return nil, fmt.Errorf("coord: journal record %d partial: %w", i+1, err)
			}
			if err := c.job.CheckPartial(rec.shard, p); err != nil {
				return nil, fmt.Errorf("coord: journal record %d: %w", i+1, err)
			}
			c.applyComplete(rec.shard, rec.runner, p)
		case jrFail:
			c.applyFail(rec.shard, rec.runner, rec.attempt, rec.msg)
		default:
			return nil, fmt.Errorf("coord: journal record %d has unknown kind %d", i+1, rec.kind)
		}
	}
	return c, nil
}

// Recover rebuilds a coordinator from the journal in dir (written by a
// previous coordinator whose job carried dir as its checkpoint dir)
// and reopens the journal for appending, so the recovered coordinator
// continues journaling where the crashed one stopped. A torn final
// record — the crash landed mid-append — is truncated away with a
// warning; any longer corruption fails loudly, never silently
// diverges. Running leases are given one fresh lease interval from
// recovery time to re-heartbeat.
func Recover(opts Options, dir string) (*Coordinator, error) {
	opts = opts.withDefaults()
	path := JournalPath(dir)
	recs, goodEnd, terr := readJournal(path)
	if len(recs) == 0 {
		if terr == nil {
			return nil, fmt.Errorf("coord: journal %s is empty", path)
		}
		return nil, fmt.Errorf("coord: journal %s is unreadable: %w", path, terr)
	}
	if terr != nil {
		if opts.Logf != nil {
			opts.Logf("coord: journal %s has a torn tail (%v); truncating to last valid record at byte %d",
				path, terr, goodEnd)
		}
		if err := os.Truncate(path, goodEnd); err != nil {
			return nil, fmt.Errorf("coord: truncate torn journal tail: %w", err)
		}
	}
	c, err := replayState(opts, recs)
	if err != nil {
		return nil, err
	}
	jnl, err := openJournal(path, os.O_APPEND)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.jnl = jnl
	c.logf("coord: recovered job from %s: %d records, %d/%d shards done",
		path, len(recs), len(c.shards)-c.remain, len(c.shards))
	c.mu.Unlock()
	return c, nil
}

var _ delivery.Service = (*Coordinator)(nil)
