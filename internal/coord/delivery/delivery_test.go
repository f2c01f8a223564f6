package delivery

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/units"
)

// stubService returns canned sentinels so transport mapping can be
// tested without a coordinator.
type stubService struct {
	submitted *fleet.Job
	task      Task
	claimErr  error
	beats     []Beat
	completed []*fleet.Partial
	failures  []string
	failedAt  []int
	status    Status
	result    []byte
	resultErr error
}

func (s *stubService) Submit(job fleet.Job) error {
	s.submitted = &job
	return nil
}
func (s *stubService) Claim(runner string) (Task, error) { return s.task, s.claimErr }
func (s *stubService) Heartbeat(runner string, beat Beat) error {
	s.beats = append(s.beats, beat)
	return nil
}
func (s *stubService) Complete(runner string, shard int, p *fleet.Partial) error {
	s.completed = append(s.completed, p)
	return nil
}
func (s *stubService) Fail(runner string, shard, attempt int, msg string) error {
	s.failures = append(s.failures, msg)
	s.failedAt = append(s.failedAt, attempt)
	return nil
}
func (s *stubService) Status() Status                        { return s.status }
func (s *stubService) Result(canonical bool) ([]byte, error) { return s.result, s.resultErr }

// registryJob builds a wire job the way a remote submitter would:
// exported fields only, scenario by registry name. (NewJob would also
// capture the scenario value in-process, which breaks the == checks
// below — a round-tripped job deliberately loses that override.)
func registryJob(t *testing.T) fleet.Job {
	t.Helper()
	job := fleet.Job{
		Identity: fleet.Identity{
			Scenario:       "poller",
			Devices:        8,
			Seed:           7,
			Duration:       units.Hour,
			LifeResolution: fleet.DefaultLifeResolution,
		},
		Shards: 2,
	}
	if err := job.Validate(); err != nil {
		t.Fatal(err)
	}
	return job
}

// namedScenario is a non-registry workload: legal in-process, but with
// no registry name to resolve it by on the far side of a wire.
type namedScenario struct{ fleet.Scenario }

func (namedScenario) Name() string { return "not-in-the-registry" }

// serveStub puts svc behind the HTTP mechanism on a test server and
// dials it.
func serveStub(t *testing.T, svc Service) Conn {
	t.Helper()
	srv := httptest.NewServer(Handler(svc))
	t.Cleanup(srv.Close)
	conn := DialHTTP(srv.URL)
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestHTTPDeliversByValue: delivery is a wire, not a function call — a
// job referencing a non-registry scenario dies in the server's parse
// gate, and the service never sees it.
func TestHTTPDeliversByValue(t *testing.T) {
	custom := namedScenario{fleet.Scenarios()["idle"]}
	job, err := fleet.NewJob(fleet.Config{
		Devices:  4,
		Seed:     1,
		Duration: units.Hour,
		Scenario: custom,
	}, 1)
	if err != nil {
		t.Fatal(err) // NewJob captures the override; in-process it is valid
	}

	svc := &stubService{}
	err = serveStub(t, svc).Submit(context.Background(), job)
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("non-registry job crossed the wire: %v", err)
	}
	if svc.submitted != nil {
		t.Fatal("service saw a job that should have died in serialization")
	}
}

// TestHTTPRoundTrip: every message type survives the HTTP mechanism's
// JSON round-trip intact.
func TestHTTPRoundTrip(t *testing.T) {
	ctx := context.Background()
	job := registryJob(t)
	svc := &stubService{
		task: Task{Job: job, Shard: 1, Resume: true, Attempt: 2, HeartbeatMS: 250},
		status: Status{
			Submitted: true, Devices: 8, DevicesDone: 3,
			Shards: []ShardStatus{{Shard: 0, State: "running", Runner: "r", LastCheckpoint: 4}},
		},
		result: []byte(`{"ok":true}`),
	}
	conn := serveStub(t, svc)

	if err := conn.Submit(ctx, job); err != nil {
		t.Fatal(err)
	}
	if svc.submitted == nil || *svc.submitted != job {
		t.Fatalf("submit mangled the job: %+v", svc.submitted)
	}
	task, err := conn.Claim(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	if task != svc.task {
		t.Fatalf("claim mangled the task: %+v vs %+v", task, svc.task)
	}
	beat := Beat{Shard: 1, DevicesDone: 3, SimDoneMS: 9000, LastCheckpoint: 0}
	if err := conn.Heartbeat(ctx, "r", beat); err != nil {
		t.Fatal(err)
	}
	if len(svc.beats) != 1 || svc.beats[0] != beat {
		t.Fatalf("heartbeat mangled the beat: %+v", svc.beats)
	}
	if err := conn.Fail(ctx, "r", 1, 2, "boom"); err != nil {
		t.Fatal(err)
	}
	if len(svc.failures) != 1 || svc.failures[0] != "boom" || svc.failedAt[0] != 2 {
		t.Fatalf("fail mangled the message: %+v at %+v", svc.failures, svc.failedAt)
	}
	st, err := conn.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.DevicesDone != 3 || len(st.Shards) != 1 || st.Shards[0].LastCheckpoint != 4 {
		t.Fatalf("status mangled: %+v", st)
	}
	b, err := conn.Result(ctx, false)
	if err != nil || string(b) != `{"ok":true}` {
		t.Fatalf("result mangled: %s, %v", b, err)
	}
}

// TestHTTPPartialRoundTrip: a real shard partial survives Complete's
// parse gate byte for byte.
func TestHTTPPartialRoundTrip(t *testing.T) {
	job := registryJob(t)
	cfg, err := job.ShardConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	part, err := fleet.RunShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := &stubService{}
	if err := serveStub(t, svc).Complete(context.Background(), "r", 0, part); err != nil {
		t.Fatal(err)
	}
	if len(svc.completed) != 1 {
		t.Fatal("partial not delivered")
	}
	a, _ := part.JSON()
	b, _ := svc.completed[0].JSON()
	if string(a) != string(b) {
		t.Fatalf("partial mangled in delivery:\n%s\nvs\n%s", a, b)
	}
}

// TestHTTPCompleteRefusesInconsistentPartial: a partial that contradicts
// itself dies in Complete's parse gate with an error naming its shard
// and bucket; the service behind the handler never sees it.
func TestHTTPCompleteRefusesInconsistentPartial(t *testing.T) {
	job := registryJob(t)
	cfg, err := job.ShardConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	part, err := fleet.RunShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	part.Buckets[0].Devices = 0
	svc := &stubService{}
	err = serveStub(t, svc).Complete(context.Background(), "r", 0, part)
	// The refusal decodes to ErrRefused and keeps the coordinator's text.
	if !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), `partial 0/2 bucket "poller" has 0 devices`) {
		t.Fatalf("inconsistent partial: got %v, want a refusal naming shard and bucket", err)
	}
	if len(svc.completed) != 0 {
		t.Fatal("service saw a partial that should have died in the parse gate")
	}
}

// TestSentinelWireCodes: every sentinel must survive the HTTP error
// mapping in both directions (unit-level, no server).
func TestSentinelWireCodes(t *testing.T) {
	for _, sentinel := range []error{ErrNoWork, ErrDone, ErrLeaseLost, ErrNotDone} {
		var code string
		var status int
		for _, m := range errCodes {
			if m.err == sentinel {
				code, status = m.code, m.status
			}
		}
		if code == "" {
			t.Fatalf("%v has no wire code", sentinel)
		}
		body := []byte(`{"code":"` + code + `","error":"x"}`)
		if got := decodeErr(status, body); got != sentinel {
			t.Fatalf("code %q decoded to %v, want %v", code, got, sentinel)
		}
	}
	refused := []byte(`{"code":"refused","error":"delivery: refused: coord: partial 0/2 is from another run"}`)
	if err := decodeErr(http.StatusUnprocessableEntity, refused); !errors.Is(err, ErrRefused) ||
		err.Error() != "delivery: refused: coord: partial 0/2 is from another run" {
		t.Fatalf("refusal decoded to %q, want ErrRefused with the coordinator's text", err)
	}
	if !IsProtocol(fmt.Errorf("coord: %w", ErrRefused)) {
		t.Fatal("a wrapped refusal is not a protocol outcome: Retry would redeliver it")
	}
	if err := decodeErr(500, []byte("something broke")); err == nil ||
		!strings.Contains(err.Error(), "something broke") {
		t.Fatalf("plain error lost its text: %v", err)
	}
}

// TestBackoffDelaySchedule: the delay schedule is deterministic in
// (Seed, attempt), capped, exponential without jitter, and seed-
// sensitive with it.
func TestBackoffDelaySchedule(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Seed: 42}
	for i := 1; i <= 12; i++ {
		if b.Delay(i) != b.Delay(i) {
			t.Fatalf("delay %d is not deterministic", i)
		}
		if max := time.Duration(float64(80*time.Millisecond) * 1.2); b.Delay(i) > max {
			t.Fatalf("delay %d = %v exceeds jittered cap %v", i, b.Delay(i), max)
		}
	}
	nz := Backoff{Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond, Jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 100, 100}
	for i, w := range want {
		if got := nz.Delay(i + 1); got != w*time.Millisecond {
			t.Fatalf("zero-jitter delay %d = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	s1, s2 := Backoff{Seed: 1}, Backoff{Seed: 2}
	same := true
	for i := 1; i <= 8; i++ {
		if s1.Delay(i) != s2.Delay(i) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

// TestRetryOutcomes: protocol answers end the loop immediately,
// transport errors are retried to MaxAttempts, success stops early,
// and a dead context always wins.
func TestRetryOutcomes(t *testing.T) {
	ctx := context.Background()
	fast := Backoff{Base: time.Millisecond, Cap: 2 * time.Millisecond, Jitter: -1}

	calls := 0
	err := Retry(ctx, fast, func(context.Context) error { calls++; return ErrLeaseLost })
	if !errors.Is(err, ErrLeaseLost) || calls != 1 {
		t.Fatalf("protocol outcome: err %v after %d calls", err, calls)
	}

	boom := errors.New("boom")
	calls = 0
	bounded := fast
	bounded.MaxAttempts = 3
	if err := Retry(ctx, bounded, func(context.Context) error { calls++; return boom }); !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("bounded retry: err %v after %d calls, want boom after 3", err, calls)
	}

	calls = 0
	err = Retry(ctx, bounded, func(context.Context) error {
		calls++
		if calls < 3 {
			return boom
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("eventual success: err %v after %d calls", err, calls)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	slow := Backoff{Base: time.Hour}
	if err := Retry(cctx, slow, func(context.Context) error { return boom }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err %v, want Canceled", err)
	}
}

// TestHTTPContextCancelsInFlight: cancelling the caller's context must
// abort an in-flight HTTP request promptly — a runner shutting down
// cannot afford to wait out the 30 s client timeout against a hung
// coordinator.
func TestHTTPContextCancelsInFlight(t *testing.T) {
	entered := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-r.Context().Done() // hang until the client goes away
	}))
	defer srv.Close()
	conn := DialHTTP(srv.URL)
	defer conn.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := conn.Status(ctx)
		done <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("aborted call returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not abort the in-flight request")
	}
}
