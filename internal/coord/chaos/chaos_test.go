package chaos_test

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/chaos"
	"repro/internal/coord/delivery"
	"repro/internal/fleet"
	"repro/internal/units"
)

// chaosJob builds the suite's workload: heterogeneous enough to make
// divergence visible, small enough to run many times under -race.
func chaosJob(t *testing.T, shards int, dir string) fleet.Job {
	t.Helper()
	job, err := fleet.NewJob(fleet.Config{
		Devices:       8,
		Seed:          13,
		Duration:      2 * 24 * units.Hour,
		Scenario:      fleet.Scenarios()["weekinthelife"],
		CheckpointDir: dir,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// reference is the clean single-process run every chaotic run must
// reproduce byte for byte (checkpointed, like the job, because epoch
// boundaries shape the engine diagnostics).
func reference(t *testing.T, job fleet.Job) (full, canonical []byte) {
	t.Helper()
	ref := fleet.Job{
		Identity: job.Identity, Shards: 1,
		CheckpointDir: t.TempDir(), CheckpointEveryMS: job.CheckpointEveryMS,
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
	if full, err = rep.JSON(false); err != nil {
		t.Fatal(err)
	}
	if canonical, err = rep.CanonicalJSON(false); err != nil {
		t.Fatal(err)
	}
	return full, canonical
}

// fastBackoff keeps retries snappy so injected faults cost
// milliseconds, not test minutes.
func fastBackoff(seed int64) delivery.Backoff {
	return delivery.Backoff{
		Base: 2 * time.Millisecond, Cap: 50 * time.Millisecond,
		Seed: seed, CallTimeout: 10 * time.Second,
	}
}

// serve puts svc behind the HTTP delivery handler on a test server and
// submits job through it. Both services under test serialize their
// calls on a mutex, so concurrent requests are safe.
func serve(t *testing.T, svc delivery.Service, job fleet.Job) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(delivery.Handler(svc))
	t.Cleanup(srv.Close)
	conn := delivery.DialHTTP(srv.URL)
	defer conn.Close()
	if err := conn.Submit(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	return srv
}

// runChaotic executes the job submitted to co behind srv with two
// runners whose connections are wrapped by plans.
func runChaotic(t *testing.T, co *coord.Coordinator, srv *httptest.Server, plans []chaos.Plan) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, plan := range plans {
		r := &coord.Runner{
			ID:      []string{"chaos-a", "chaos-b"}[i%2],
			Conn:    chaos.Wrap(delivery.DialHTTP(srv.URL), plan),
			Workers: 2,
			Poll:    5 * time.Millisecond,
			Backoff: fastBackoff(int64(i) + 100),
			Logf:    t.Logf,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Run(ctx)
		}()
	}
	if _, err := co.Wait(ctx); err != nil {
		t.Fatalf("job did not survive the fault schedule: %v", err)
	}
	cancel()
	wg.Wait()
}

// TestChaosSchedulesPreserveBytes is the e2e chaos suite: the full
// coordinator/runner conversation under several seeded message-fault
// schedules — request drops, lost replies, duplicated deliveries,
// delays, partition windows — must still merge to the exact bytes of
// the clean single-process run, full and canonical JSON alike.
func TestChaosSchedulesPreserveBytes(t *testing.T) {
	schedules := []struct {
		name  string
		plans []chaos.Plan
	}{
		{"drop-heavy", []chaos.Plan{
			{Seed: 101, Drop: 0.15, DropReply: 0.10},
			{Seed: 102, Drop: 0.15, DropReply: 0.10},
		}},
		{"dup-and-delay", []chaos.Plan{
			{Seed: 201, Dup: 0.20, Delay: 2 * time.Millisecond, DropReply: 0.05},
			{Seed: 202, Dup: 0.20, Delay: 2 * time.Millisecond, DropReply: 0.05},
		}},
		{"partitions", []chaos.Plan{
			{Seed: 301, Drop: 0.05, Partitions: []chaos.Window{{From: 20, To: 45}, {From: 90, To: 110}}},
			{Seed: 302, Drop: 0.05, Partitions: []chaos.Window{{From: 40, To: 70}}},
		}},
	}
	for _, tc := range schedules {
		t.Run(tc.name, func(t *testing.T) {
			job := chaosJob(t, 4, t.TempDir())
			wantFull, wantCanon := reference(t, job)

			// A generous lease: injected faults must never look like a
			// silent runner, or MaxAttempts turns the test flaky. The
			// attempt budget absorbs the orphan leases duplicated Claims
			// create.
			co := coord.New(coord.Options{
				Heartbeat: 50 * time.Millisecond, Lease: 5 * time.Second,
				MaxAttempts: 30, Logf: t.Logf,
			})
			defer co.Close()
			runChaotic(t, co, serve(t, co, job), tc.plans)

			got, err := co.Result(false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantFull) {
				t.Fatalf("full JSON diverged under %s schedule", tc.name)
			}
			gotC, err := co.Result(true)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotC, wantCanon) {
				t.Fatalf("canonical JSON diverged under %s schedule", tc.name)
			}
		})
	}
}

// TestCoordinatorKillRestart kills the coordinator twice mid-job —
// once before a call is delivered, once after (the journaled-but-
// unacknowledged case) — rebuilding each time via Recover over the
// journal, while message chaos runs on top. The runners must ride out
// both restarts through their backoff and the merged report must stay
// byte-identical.
func TestCoordinatorKillRestart(t *testing.T) {
	dir := t.TempDir()
	job := chaosJob(t, 4, dir)
	wantFull, wantCanon := reference(t, job)

	opts := coord.Options{
		Heartbeat: 50 * time.Millisecond, Lease: 5 * time.Second,
		MaxAttempts: 30, Logf: t.Logf,
	}
	rebuild := func(prev delivery.Service) delivery.Service {
		prev.(*coord.Coordinator).Close()
		c, err := coord.Recover(opts, dir)
		if err != nil {
			t.Errorf("recover after kill: %v", err)
			return prev
		}
		return c
	}
	rest := chaos.NewRestarter(coord.New(opts), rebuild, 15, 60)
	srv := serve(t, rest, job)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		r := &coord.Runner{
			ID:      []string{"kr-a", "kr-b"}[i],
			Conn:    chaos.Wrap(delivery.DialHTTP(srv.URL), chaos.Plan{Seed: int64(401 + i), Drop: 0.05, DropReply: 0.05}),
			Workers: 2,
			Poll:    5 * time.Millisecond,
			Backoff: fastBackoff(int64(i) + 400),
			Logf:    t.Logf,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Run(ctx)
		}()
	}

	// The coordinator identity changes across kills, so completion is
	// observed through the restarter, not one instance's Wait.
	for {
		if ctx.Err() != nil {
			t.Fatal("job did not finish within the deadline")
		}
		st := rest.Status()
		if st.Failed != "" {
			t.Fatalf("job failed under kill-restart: %s", st.Failed)
		}
		if st.Done {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	cancel()
	wg.Wait()

	if kills := rest.Kills(); kills != 2 {
		t.Fatalf("%d kills fired, want 2 — the job finished before the schedule ran", kills)
	}
	final := rest.Current().(*coord.Coordinator)
	defer final.Close()
	got, err := final.Result(false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantFull) {
		t.Fatal("full JSON diverged after coordinator kill-restarts")
	}
	gotC, err := final.Result(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotC, wantCanon) {
		t.Fatal("canonical JSON diverged after coordinator kill-restarts")
	}
}

// nopConn answers every probed call with nil; only the methods the
// determinism test exercises are implemented.
type nopConn struct{ delivery.Conn }

func (nopConn) Heartbeat(context.Context, string, delivery.Beat) error { return nil }

// TestChaosDeterminism: the fault schedule is a pure function of
// (Seed, call sequence) — two connections with the same plan misbehave
// identically, different seeds do not.
func TestChaosDeterminism(t *testing.T) {
	pattern := func(plan chaos.Plan) []bool {
		c := chaos.Wrap(nopConn{}, plan)
		var p []bool
		for i := 0; i < 300; i++ {
			err := c.Heartbeat(context.Background(), "r", delivery.Beat{})
			if err != nil && !errors.Is(err, chaos.ErrInjected) {
				t.Fatalf("call %d: %v is not ErrInjected", i, err)
			}
			p = append(p, err != nil)
		}
		return p
	}
	plan := chaos.Plan{Seed: 9, Drop: 0.2, DropReply: 0.1, Partitions: []chaos.Window{{From: 50, To: 60}}}
	a, b := pattern(plan), pattern(plan)
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: same plan, different fate", i)
		}
		if a[i] {
			faults++
		}
	}
	if faults < 30 {
		t.Fatalf("only %d/300 faults injected: plan not biting", faults)
	}
	other := plan
	other.Seed = 10
	c := pattern(other)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the identical schedule")
	}
}
