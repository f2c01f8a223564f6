package coord

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/coord/delivery"
	"repro/internal/fleet"
	"repro/internal/units"
)

// TestCompleteRefusesForeignRun: a runner that simulates its leased
// shard under a different run — any one identity field changed — must
// have its partial refused, with an error naming the field, whether it
// calls Complete directly or over the HTTP delivery handler. The
// refusal leaves the shard leased and the job unmerged; the genuine
// partial is still accepted afterwards.
func TestCompleteRefusesForeignRun(t *testing.T) {
	job := dayJob(t, 8, 2)
	for _, tc := range []struct {
		field string // the identity field's JSON name
		drift func(cfg *fleet.Config)
	}{
		{"scenario", func(cfg *fleet.Config) { cfg.Scenario = fleet.Scenarios()["idle"] }},
		{"devices", func(cfg *fleet.Config) { cfg.Devices = 10 }},
		{"seed", func(cfg *fleet.Config) { cfg.Seed = 999 }},
		{"duration_ms", func(cfg *fleet.Config) { cfg.Duration = 12 * units.Hour }},
		{"battery_uj", func(cfg *fleet.Config) { cfg.BatteryCapacity = units.Joules(5000) }},
		{"life_resolution_ms", func(cfg *fleet.Config) { cfg.LifeResolution = 2 * units.Second }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			co := New(Options{})
			if err := co.Submit(job); err != nil {
				t.Fatal(err)
			}
			task, err := co.Claim("r")
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := task.Job.ShardConfig(task.Shard)
			if err != nil {
				t.Fatal(err)
			}
			tc.drift(&cfg)
			cfg.Workers = 2
			foreign, err := fleet.RunShard(cfg)
			if err != nil {
				t.Fatal(err)
			}

			srv := httptest.NewServer(delivery.Handler(co))
			defer srv.Close()
			conn := delivery.DialHTTP(srv.URL)
			defer conn.Close()
			want := tc.field + " is "
			for _, path := range []struct {
				name     string
				complete func() error
			}{
				{"direct", func() error { return co.Complete("r", task.Shard, foreign) }},
				{"http", func() error { return conn.Complete(context.Background(), "r", task.Shard, foreign) }},
			} {
				if err := path.complete(); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: Complete of a partial with another %s: got %v, want a refusal naming %q",
						path.name, tc.field, err, want)
				}
			}
			if st := co.Status().Shards[task.Shard]; st.State != "running" {
				t.Fatalf("shard %d after the refusals: %s, want still running", task.Shard, st.State)
			}
			if _, err := co.Result(false); !errors.Is(err, delivery.ErrNotDone) {
				t.Fatalf("Result after the refusals: %v, want ErrNotDone", err)
			}
			if err := co.Complete("r", task.Shard, runShard(t, task)); err != nil {
				t.Fatalf("the genuine partial after the refusals: %v", err)
			}
		})
	}
}

// refusingConn forwards a runner's conversation, counting its Complete
// and Fail calls, and delivers every partial under another seed so the
// coordinator refuses it.
type refusingConn struct {
	delivery.Conn
	completes, fails int
	failMsg          string
}

func (c *refusingConn) Complete(ctx context.Context, runner string, shard int, p *fleet.Partial) error {
	c.completes++
	drifted := *p
	drifted.Seed++
	return c.Conn.Complete(ctx, runner, shard, &drifted)
}

func (c *refusingConn) Fail(ctx context.Context, runner string, shard, attempt int, msg string) error {
	c.fails++
	c.failMsg = msg
	return c.Conn.Fail(ctx, runner, shard, attempt, msg)
}

// TestRunnerReportsRefusedPartial: a partial the coordinator refuses
// over HTTP is not redelivered. The runner makes exactly one Complete
// call, then reports the attempt failed with the refusal's text, and
// the coordinator charges it (here its last attempt, failing the job).
func TestRunnerReportsRefusedPartial(t *testing.T) {
	job := dayJob(t, 4, 1)
	co := New(Options{MaxAttempts: 1})
	if err := co.Submit(job); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(delivery.Handler(co))
	defer srv.Close()
	conn := &refusingConn{Conn: delivery.DialHTTP(srv.URL)}
	defer conn.Close()
	r := &Runner{ID: "r", Conn: conn, Workers: 2}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := r.Run(ctx); err != nil {
		t.Fatalf("runner: %v", err)
	}
	if conn.completes != 1 || conn.fails != 1 {
		t.Fatalf("runner made %d Complete and %d Fail calls, want 1 and 1", conn.completes, conn.fails)
	}
	if !strings.Contains(conn.failMsg, "seed is ") {
		t.Fatalf("Fail carried %q, want the refusal naming the seed", conn.failMsg)
	}
	if _, err := co.Result(false); err == nil || !strings.Contains(err.Error(), "failed 1 times") ||
		!strings.Contains(err.Error(), "seed is ") {
		t.Fatalf("Result after the refusal: %v, want the charged attempt's refusal", err)
	}
}
