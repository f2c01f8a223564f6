package coord

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/coord/delivery"
	"repro/internal/fleet"
	"repro/internal/snap"
)

// taskConfig is a leased shard's run config the way a runner makes it.
func taskConfig(t *testing.T, task delivery.Task) fleet.Config {
	t.Helper()
	cfg, err := task.Job.ShardConfig(task.Shard)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers, cfg.ResumeAuto = 2, task.Resume
	return cfg
}

// runShard executes one leased shard the way a runner would.
func runShard(t *testing.T, task delivery.Task) *fleet.Partial {
	t.Helper()
	part, err := fleet.RunShard(taskConfig(t, task))
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// TestRecoverResumesMidJob is the coordinator-crash rehearsal, by hand:
// one shard completes, a second is leased, and the coordinator dies
// (Close stands in for kill -9 — the journal is synced record by
// record, so a closed handle and a severed one leave the same bytes).
// Recover must rebuild the exact lease/attempt state, accept the rest
// of the job, and produce a byte-identical report.
func TestRecoverResumesMidJob(t *testing.T) {
	dir := t.TempDir()
	job := weekJob(t, 6, 2, dir)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	opts := Options{Heartbeat: time.Second, Lease: 10 * time.Second, MaxAttempts: 5, Now: clk.Now, Logf: t.Logf}

	co := New(opts)
	if err := co.Submit(job); err != nil {
		t.Fatal(err)
	}
	task0, err := co.Claim("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Complete("a", task0.Shard, runShard(t, task0)); err != nil {
		t.Fatal(err)
	}
	task1, err := co.Claim("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Heartbeat("a", delivery.Beat{Shard: task1.Shard, DevicesDone: 1, SimDoneMS: 1000, LastCheckpoint: 0}); err != nil {
		t.Fatal(err)
	}
	co.Close() // crash

	co2, err := Recover(opts, dir)
	if err != nil {
		t.Fatal(err)
	}
	st := co2.Status()
	if st.Shards[task0.Shard].State != "done" {
		t.Fatalf("recovered shard %d: %+v, want done", task0.Shard, st.Shards[task0.Shard])
	}
	s1 := st.Shards[task1.Shard]
	if s1.State != "running" || s1.Runner != "a" || s1.Attempts != 1 || s1.LastCheckpoint != 0 {
		t.Fatalf("recovered shard %d: %+v, want running by a at attempt 1", task1.Shard, s1)
	}

	// The surviving runner finishes its shard against the recovered
	// coordinator.
	if err := co2.Complete("a", task1.Shard, runShard(t, task1)); err != nil {
		t.Fatal(err)
	}
	got, err := co2.Result(false)
	if err != nil {
		t.Fatal(err)
	}
	want := singleProcess(t, job)
	if wj := mustJSON(t, want); !bytes.Equal(got, wj) {
		t.Fatalf("recovered report diverged:\n%s\nvs\n%s", got, wj)
	}
	gotC, err := co2.Result(true)
	if err != nil {
		t.Fatal(err)
	}
	if wc, _ := want.CanonicalJSON(false); !bytes.Equal(gotC, wc) {
		t.Fatal("recovered canonical report diverged")
	}
	co2.Close()

	// The recovered coordinator kept journaling: a second recovery sees
	// the finished job.
	co3, err := Recover(opts, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer co3.Close()
	if !co3.Status().Done {
		t.Fatal("second recovery does not see the finished job")
	}
	if got3, err := co3.Result(false); err != nil || !bytes.Equal(got3, got) {
		t.Fatalf("second recovery report diverged: %v", err)
	}
}

// TestRecoverTornTail: a crash mid-append leaves a torn final record.
// Recover must truncate it away with a warning and resume from the
// last durable record — here the lost record is shard 1's completion,
// so its runner's retried delivery is accepted and the report is still
// byte-identical.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	job := weekJob(t, 6, 2, dir)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	opts := Options{Heartbeat: time.Second, Lease: 10 * time.Second, MaxAttempts: 5, Now: clk.Now, Logf: t.Logf}

	co := New(opts)
	if err := co.Submit(job); err != nil {
		t.Fatal(err)
	}
	taskA, err := co.Claim("a")
	if err != nil {
		t.Fatal(err)
	}
	taskB, err := co.Claim("b")
	if err != nil {
		t.Fatal(err)
	}
	partA, partB := runShard(t, taskA), runShard(t, taskB)
	if err := co.Complete("a", taskA.Shard, partA); err != nil {
		t.Fatal(err)
	}
	if err := co.Complete("b", taskB.Shard, partB); err != nil {
		t.Fatal(err)
	}
	co.Close()

	// Tear the tail: the final record (shard B's completion) loses its
	// last bytes, as if the crash landed mid-write.
	path := JournalPath(dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	var warned bool
	wopts := opts
	wopts.Logf = func(format string, args ...any) {
		if strings.Contains(format, "torn tail") {
			warned = true
		}
		t.Logf(format, args...)
	}
	co2, err := Recover(wopts, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	if !warned {
		t.Fatal("torn tail was not reported")
	}
	if st := co2.Status(); st.Shards[taskB.Shard].State != "running" {
		t.Fatalf("shard %d after torn-tail recovery: %+v, want running (completion was torn)",
			taskB.Shard, st.Shards[taskB.Shard])
	}
	// Runner b never got its ack, so it retries the identical delivery.
	if err := co2.Complete("b", taskB.Shard, partB); err != nil {
		t.Fatal(err)
	}
	got, err := co2.Result(false)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustJSON(t, singleProcess(t, job)); !bytes.Equal(got, want) {
		t.Fatalf("report after torn-tail recovery diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestRecoverRefusesOtherVersion: a journal whose first record was
// written by another snapshot format version — a coordinator build from
// before or after a layout change — is refused with snap.ErrVersion and
// left byte for byte as it was. It is not a torn tail: truncating it
// would destroy the only record of the job.
func TestRecoverRefusesOtherVersion(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{now: time.Unix(1000, 0)}
	opts := Options{Heartbeat: time.Second, Lease: 10 * time.Second, MaxAttempts: 5, Now: clk.Now, Logf: t.Logf}
	co := New(opts)
	if err := co.Submit(weekJob(t, 6, 2, dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Claim("a"); err != nil {
		t.Fatal(err)
	}
	co.Close()

	// Rewrite the submit record's version field; the grant after it
	// stays as written.
	path := JournalPath(dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(b)
	kind, blob, err := snap.ReadFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Fatal("journal holds only the submit record")
	}
	binary.LittleEndian.PutUint32(blob[len(snap.Magic):], snap.Version-1)
	stale := snap.AppendFrame(nil, kind, blob)
	stale = append(stale, b[len(b)-r.Len():]...)
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	wopts := opts
	wopts.Logf = func(format string, args ...any) {
		if strings.Contains(format, "torn tail") {
			t.Errorf("another version reported as a torn tail: "+format, args...)
		}
	}
	co2, err := Recover(wopts, dir)
	if err == nil {
		co2.Close()
		t.Fatal("recovered a journal written by another snapshot version")
	}
	if !errors.Is(err, snap.ErrVersion) {
		t.Fatalf("err = %v, want one wrapping snap.ErrVersion", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, stale) {
		t.Fatalf("refused journal changed: %d bytes, wrote %d", len(got), len(stale))
	}
}

// TestJournalTruncationProperty is the S4 property test: for ANY
// prefix of a real job's journal — clean record boundary or torn
// mid-frame — recovery either fails loudly or yields a coordinator
// that drives the job to the exact reference bytes. There is no third
// outcome: no silent divergence, no hang.
func TestJournalTruncationProperty(t *testing.T) {
	dir := t.TempDir()
	job := weekJob(t, 6, 2, dir)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	opts := Options{Heartbeat: time.Second, Lease: 10 * time.Second, MaxAttempts: 10, Now: clk.Now, Logf: t.Logf}

	// Scripted history touching every record kind: grants, a beat, a
	// genuine failure, a resumed re-grant, and two completions.
	co := New(opts)
	if err := co.Submit(job); err != nil {
		t.Fatal(err)
	}
	task0, err := co.Claim("a")
	if err != nil {
		t.Fatal(err)
	}
	task1, err := co.Claim("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Heartbeat("a", delivery.Beat{Shard: task0.Shard, DevicesDone: 1, SimDoneMS: 500, LastCheckpoint: 0}); err != nil {
		t.Fatal(err)
	}
	if err := co.Complete("a", task0.Shard, runShard(t, task0)); err != nil {
		t.Fatal(err)
	}
	if err := co.Fail("b", task1.Shard, task1.Attempt, "induced"); err != nil {
		t.Fatal(err)
	}
	task1b, err := co.Claim("b")
	if err != nil {
		t.Fatal(err)
	}
	if !task1b.Resume || task1b.Attempt != 1 {
		t.Fatalf("re-grant: %+v", task1b)
	}
	if err := co.Complete("b", task1b.Shard, runShard(t, task1b)); err != nil {
		t.Fatal(err)
	}
	ref, err := co.Result(false)
	if err != nil {
		t.Fatal(err)
	}
	co.Close()

	full, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	cuts := []int{0, 1, len(full) - 1, len(full)}
	for i := 0; i < 16; i++ {
		cuts = append(cuts, 1+rng.Intn(len(full)-1))
	}
	for _, cut := range cuts {
		// Only the journal prefix moves to a fresh dir; the epoch files
		// stay in the job's checkpoint dir, shared by every recovery the
		// way a real restart shares them.
		jdir := t.TempDir()
		if err := os.WriteFile(JournalPath(jdir), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		clk2 := &fakeClock{now: time.Unix(5000, 0)}
		ropts := opts
		ropts.Now = clk2.Now
		ropts.Logf = nil
		co2, err := Recover(ropts, jdir)
		if err != nil {
			// Loud failure is a legal outcome — but only for prefixes too
			// short to even hold the job record.
			t.Logf("cut %4d/%d: loud failure: %v", cut, len(full), err)
			continue
		}
		drive(t, co2, clk2, cut)
		got, err := co2.Result(false)
		if err != nil {
			t.Fatalf("cut %d: result after drive: %v", cut, err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("cut %d: recovered run diverged from reference", cut)
		}
		co2.Close()
	}
}

// drive plays a single generic runner against a recovered coordinator
// until the job completes, expiring stuck leases via the fake clock.
func drive(t *testing.T, co *Coordinator, clk *fakeClock, cut int) {
	t.Helper()
	for iter := 0; ; iter++ {
		if iter > 100 {
			t.Fatalf("cut %d: no progress after %d iterations", cut, iter)
		}
		task, err := co.Claim("r")
		switch {
		case errors.Is(err, delivery.ErrDone):
			if st := co.Status(); st.Failed != "" {
				t.Fatalf("cut %d: job failed during drive: %s", cut, st.Failed)
			}
			return
		case errors.Is(err, delivery.ErrNoWork):
			// Shards still leased to the crashed run's runners: advance
			// past the lease so they are forfeited and re-claimable.
			clk.Advance(time.Minute)
			continue
		case err != nil:
			t.Fatalf("cut %d: claim: %v", cut, err)
		}
		if err := co.Complete("r", task.Shard, runShard(t, task)); err != nil && !errors.Is(err, delivery.ErrDone) {
			t.Fatalf("cut %d: complete: %v", cut, err)
		}
	}
}

// TestSubmitOverJournal: a coordinator started fresh over a checkpoint
// dir must refuse to clobber an unfinished journal (pointing the
// operator at -recover), and silently discard a finished one.
func TestSubmitOverJournal(t *testing.T) {
	dir := t.TempDir()
	job := weekJob(t, 6, 1, dir)
	opts := Options{Heartbeat: time.Second, Lease: 10 * time.Second, Logf: t.Logf}

	co := New(opts)
	if err := co.Submit(job); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Claim("a"); err != nil {
		t.Fatal(err)
	}
	co.Close() // crash with the job unfinished

	fresh := New(opts)
	err := fresh.Submit(job)
	if err == nil || !strings.Contains(err.Error(), "serve -recover") {
		t.Fatalf("submit over unfinished journal: %v, want a -recover hint", err)
	}
	fresh.Close()

	// Finish the job via recovery, then the same Submit starts over.
	co2, err := Recover(opts, dir)
	if err != nil {
		t.Fatal(err)
	}
	task, err := co2.Claim("a") // same runner re-claims nothing new…
	if !errors.Is(err, delivery.ErrNoWork) {
		t.Fatalf("claim of still-leased shard: %v, want ErrNoWork", err)
	}
	// …but completing the recovered lease is accepted.
	task = delivery.Task{Job: job, Shard: 0}
	if err := co2.Complete("a", 0, runShard(t, task)); err != nil {
		t.Fatal(err)
	}
	if !co2.Status().Done {
		t.Fatal("job not done")
	}
	co2.Close()

	fresh2 := New(opts)
	defer fresh2.Close()
	if err := fresh2.Submit(job); err != nil {
		t.Fatalf("submit over finished journal: %v", err)
	}
	if st := fresh2.Status(); st.Shards[0].State != "pending" {
		t.Fatalf("fresh job inherited state: %+v", st.Shards[0])
	}
}

// TestDuplicateCompleteFailDedup: retried deliveries whose first copy
// was journaled must succeed idempotently — the exact ambiguity a lost
// acknowledgement (or chaos DropReply) creates — while third parties
// still get ErrLeaseLost.
func TestDuplicateCompleteFailDedup(t *testing.T) {
	job := dayJob(t, 4, 2)
	co := New(Options{MaxAttempts: 3})
	if err := co.Submit(job); err != nil {
		t.Fatal(err)
	}
	taskA, err := co.Claim("a")
	if err != nil {
		t.Fatal(err)
	}
	part := runShard(t, taskA)
	if err := co.Complete("a", taskA.Shard, part); err != nil {
		t.Fatal(err)
	}
	if err := co.Complete("a", taskA.Shard, part); err != nil {
		t.Fatalf("duplicate complete from the completing runner: %v, want idempotent nil", err)
	}
	if err := co.Complete("x", taskA.Shard, part); !errors.Is(err, delivery.ErrLeaseLost) {
		t.Fatalf("complete from a third party: %v, want ErrLeaseLost", err)
	}

	taskB, err := co.Claim("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Fail("b", taskB.Shard, taskB.Attempt, "boom"); err != nil {
		t.Fatal(err)
	}
	if err := co.Fail("b", taskB.Shard, taskB.Attempt, "boom"); err != nil {
		t.Fatalf("duplicate fail of the charged attempt: %v, want idempotent nil", err)
	}
	if err := co.Fail("c", taskB.Shard, taskB.Attempt, "boom"); !errors.Is(err, delivery.ErrLeaseLost) {
		t.Fatalf("fail from a third party: %v, want ErrLeaseLost", err)
	}
	if err := co.Fail("b", taskB.Shard, 7, "boom"); !errors.Is(err, delivery.ErrLeaseLost) {
		t.Fatalf("fail of a never-granted attempt: %v, want ErrLeaseLost", err)
	}
}
