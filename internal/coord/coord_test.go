package coord

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coord/delivery"
	"repro/internal/fleet"
	"repro/internal/units"
)

// dayJob is the reference workload of this suite: small enough to run
// in milliseconds, heterogeneous enough (dayinthelife draws mixed
// buckets) to exercise every aggregate field.
func dayJob(t *testing.T, devices, shards int) fleet.Job {
	t.Helper()
	job, err := fleet.NewJob(fleet.Config{
		Devices:  devices,
		Seed:     21,
		Duration: 24 * units.Hour,
		Scenario: fleet.Scenarios()["dayinthelife"],
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// weekJob is the checkpointed workload: multi-day horizon with daily
// epochs, so runner loss mid-job has checkpoints to resume from.
func weekJob(t *testing.T, devices, shards int, dir string) fleet.Job {
	t.Helper()
	job, err := fleet.NewJob(fleet.Config{
		Devices:       devices,
		Seed:          13,
		Duration:      3 * 24 * units.Hour,
		Scenario:      fleet.Scenarios()["weekinthelife"],
		CheckpointDir: dir,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// singleProcess runs the job's equivalent plain fleet.Run. A
// checkpointed job gets a checkpointed reference run (its own private
// epoch directory, same interval): epoch boundaries shape the engine
// diagnostics, so full-JSON identity needs the same epoch plan on both
// sides.
func singleProcess(t *testing.T, job fleet.Job) fleet.Report {
	t.Helper()
	ref := fleet.Job{
		Identity: job.Identity, Shards: 1,
	}
	if job.CheckpointDir != "" {
		ref.CheckpointDir = t.TempDir()
		ref.CheckpointEveryMS = job.CheckpointEveryMS
	}
	cfg, err := ref.ShardConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	rep, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func mustJSON(t *testing.T, rep fleet.Report) []byte {
	t.Helper()
	b, err := rep.JSON(false)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunLocalMatchesSingleProcess: a local cluster — the full
// coordinator/runner/delivery stack that RunHTTP starts over an HTTP
// loopback — must reproduce a plain fleet.Run byte for byte, including
// the degenerate one-runner one-shard case.
func TestRunLocalMatchesSingleProcess(t *testing.T) {
	job := dayJob(t, 50, 1)
	want := mustJSON(t, singleProcess(t, job))
	for _, tc := range []struct {
		name            string
		shards, runners int
	}{
		{"degenerate-1x1", 1, 1},
		{"4-shards-2-runners", 4, 2},
		{"7-shards-3-runners", 7, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := dayJob(t, 50, tc.shards)
			rep, err := RunHTTP(context.Background(), job, LocalOptions{
				Runners: tc.runners,
				Workers: 2,
				Logf:    t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := mustJSON(t, rep); !bytes.Equal(got, want) {
				t.Fatalf("RunHTTP diverged from single process:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// fakeClock is a hand-advanced clock for lease-expiry tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestLeaseExpiryReassignsWithResume drives the protocol by hand: a
// runner claims the only shard, publishes one epoch checkpoint, and
// vanishes. After the lease expires the shard must be re-leased with
// Resume set, the second runner must actually resume (its first
// progress update is past epoch 0), and the final report must be
// byte-identical to an uninterrupted single-process run.
func TestLeaseExpiryReassignsWithResume(t *testing.T) {
	job := weekJob(t, 6, 1, t.TempDir())
	clk := &fakeClock{now: time.Unix(1000, 0)}
	co := New(Options{Heartbeat: time.Second, Lease: 4 * time.Second, Now: clk.Now, Logf: t.Logf})
	if err := co.Submit(job); err != nil {
		t.Fatal(err)
	}

	taskA, err := co.Claim("a")
	if err != nil {
		t.Fatal(err)
	}
	if taskA.Resume || taskA.Attempt != 0 {
		t.Fatalf("first lease: resume=%v attempt=%d", taskA.Resume, taskA.Attempt)
	}

	// Runner "a" dies right after its first checkpoint lands.
	died := errors.New("runner a died")
	cfgA := taskConfig(t, taskA)
	cfgA.Progress = func(p fleet.Progress) error {
		if p.Checkpointed {
			return died
		}
		return nil
	}
	_, err = fleet.RunShard(cfgA)
	if !errors.Is(err, died) {
		t.Fatalf("induced death: got %v", err)
	}

	// The lease is still live: another claim finds no work.
	if _, err := co.Claim("b"); !errors.Is(err, delivery.ErrNoWork) {
		t.Fatalf("claim before expiry: got %v", err)
	}

	clk.Advance(10 * time.Second)
	taskB, err := co.Claim("b")
	if err != nil {
		t.Fatal(err)
	}
	if !taskB.Resume || taskB.Shard != taskA.Shard || taskB.Attempt != 1 {
		t.Fatalf("reassigned lease: resume=%v shard=%d attempt=%d",
			taskB.Resume, taskB.Shard, taskB.Attempt)
	}

	var firstEpoch = -1
	cfgB := taskConfig(t, taskB)
	cfgB.Progress = func(p fleet.Progress) error {
		if firstEpoch < 0 {
			firstEpoch = p.Epoch
		}
		return nil
	}
	part, err := fleet.RunShard(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if firstEpoch < 1 {
		t.Fatalf("runner b started at epoch %d: did not resume from the checkpoint", firstEpoch)
	}
	if err := co.Complete("b", taskB.Shard, part); err != nil {
		t.Fatal(err)
	}

	st := co.Status()
	if !st.Done || st.Shards[0].Attempts != 2 {
		t.Fatalf("status after completion: done=%v attempts=%d", st.Done, st.Shards[0].Attempts)
	}
	got, err := co.Result(false)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustJSON(t, singleProcess(t, job)); !bytes.Equal(got, want) {
		t.Fatalf("report after runner loss diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestMaxAttemptsFailsTerminally: a shard that keeps losing its runner
// must eventually fail the whole job rather than spin forever.
func TestMaxAttemptsFailsTerminally(t *testing.T) {
	job := dayJob(t, 4, 1)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	co := New(Options{Heartbeat: time.Second, Lease: 2 * time.Second, MaxAttempts: 2, Now: clk.Now})
	if err := co.Submit(job); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := co.Claim("flaky"); err != nil {
			t.Fatalf("claim %d: %v", i, err)
		}
		clk.Advance(5 * time.Second)
	}
	if _, err := co.Claim("flaky"); !errors.Is(err, delivery.ErrDone) {
		t.Fatalf("claim after exhaustion: got %v", err)
	}
	if _, err := co.Result(false); err == nil || errors.Is(err, delivery.ErrNotDone) {
		t.Fatalf("result of failed job: got %v", err)
	}
	select {
	case <-co.Done():
	default:
		t.Fatal("Done not closed after terminal failure")
	}
}

// TestFailChargesAttempt: an explicit shard failure requeues with
// Resume and counts against the attempt budget.
func TestFailChargesAttempt(t *testing.T) {
	job := dayJob(t, 4, 1)
	co := New(Options{MaxAttempts: 2})
	if err := co.Submit(job); err != nil {
		t.Fatal(err)
	}
	task, err := co.Claim("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Fail("a", task.Shard, task.Attempt, "induced"); err != nil {
		t.Fatal(err)
	}
	task2, err := co.Claim("a")
	if err != nil {
		t.Fatal(err)
	}
	if !task2.Resume || task2.Attempt != 1 {
		t.Fatalf("requeued task: resume=%v attempt=%d", task2.Resume, task2.Attempt)
	}
	if err := co.Fail("a", task2.Shard, task2.Attempt, "induced again"); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Claim("a"); !errors.Is(err, delivery.ErrDone) {
		t.Fatalf("claim after second failure: got %v", err)
	}
	if _, err := co.Result(false); err == nil || !strings.Contains(err.Error(), "induced again") {
		t.Fatalf("terminal error: got %v", err)
	}
}

// TestStaleRunnerLosesLease: heartbeats and completions from a runner
// whose lease was reassigned must come back ErrLeaseLost, and a late
// duplicate completion of a done shard is rejected the same way.
func TestStaleRunnerLosesLease(t *testing.T) {
	job := dayJob(t, 4, 1)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	co := New(Options{Heartbeat: time.Second, Lease: 2 * time.Second, Now: clk.Now})
	if err := co.Submit(job); err != nil {
		t.Fatal(err)
	}
	taskA, err := co.Claim("a")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if _, err := co.Claim("b"); err != nil {
		t.Fatal(err)
	}
	if err := co.Heartbeat("a", delivery.Beat{Shard: taskA.Shard}); !errors.Is(err, delivery.ErrLeaseLost) {
		t.Fatalf("stale heartbeat: got %v", err)
	}

	// The stale runner finishing anyway is accepted (first valid result
	// wins; resumed reruns are byte-identical)…
	part := runShard(t, taskA)
	if err := co.Complete("a", taskA.Shard, part); err != nil {
		t.Fatal(err)
	}
	// …and the superseding runner's duplicate is turned away: that
	// completion finished the one-shard job, so the answer is ErrDone.
	if err := co.Complete("b", taskA.Shard, part); !errors.Is(err, delivery.ErrDone) {
		t.Fatalf("duplicate complete: got %v", err)
	}
	if !co.Status().Done {
		t.Fatal("job not done after accepted completion")
	}
}
