// Package delivery carries the coordinator/runner conversation behind
// a small transport interface, in the spirit of rdsys's pkg/core /
// pkg/delivery split: the mergeable model (fleet.Job in, fleet.Partial
// out) lives in the core packages, and a delivery mechanism is a thin
// adapter that moves those values between processes. One mechanism
// ships: HTTP, JSON over loopback or LAN (Handler on the coordinator
// side, DialHTTP on the runner side). It serves remote runners and, on
// a 127.0.0.1 listener, coord.RunHTTP and the test suites alike.
// Sockets or RPC slot in later by implementing Conn against the same
// Service, without touching the coordinator or the runners.
//
// Delivery is by value: every message crosses its JSON wire form, so a
// job that cannot survive a network hop (say, one referencing a
// non-registry scenario) is refused by the server's parse gate before
// the Service sees it.
package delivery

import (
	"context"
	"errors"

	"repro/internal/fleet"
)

// Sentinel outcomes of the conversation. Transports must map them
// faithfully in both directions — a runner's control flow branches on
// them, not on transport-specific error text.
var (
	// ErrNoWork : nothing to lease right now; poll again later.
	ErrNoWork = errors.New("delivery: no work available")
	// ErrDone : the job is complete (or failed terminally); the runner
	// may exit.
	ErrDone = errors.New("delivery: job done")
	// ErrLeaseLost : the caller no longer holds the shard's lease (it
	// expired and was reassigned, or the shard already completed);
	// abandon the work.
	ErrLeaseLost = errors.New("delivery: lease lost")
	// ErrNotDone : the merged report was requested before completion.
	ErrNotDone = errors.New("delivery: job not done yet")
	// ErrRefused : the coordinator refused a Complete's payload (a
	// malformed request body, or a partial that fails its parse gate or
	// does not belong to the leased shard). Redelivering the same
	// partial cannot succeed; the runner reports the attempt failed.
	// The error's text names what was refused.
	ErrRefused = errors.New("delivery: refused")
)

// Task is one leased unit of work: a shard of a job.
type Task struct {
	Job   fleet.Job `json:"job"`
	Shard int       `json:"shard"`
	// Resume marks a reassigned shard: a previous runner was lost, so
	// resume from its epoch checkpoints when possible.
	Resume bool `json:"resume,omitempty"`
	// Attempt counts prior leases of this shard (0 on first assignment).
	Attempt int `json:"attempt"`
	// HeartbeatMS is the beat cadence the coordinator expects; a lease
	// that misses several beats is forfeited and reassigned.
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// Beat is one lease renewal, carrying the shard's live progress (the
// numbers behind the coordinator's /status JSON).
type Beat struct {
	Shard       int   `json:"shard"`
	DevicesDone int   `json:"devices_done"`
	SimDoneMS   int64 `json:"sim_done_ms"`
	// LastCheckpoint is the newest epoch file the shard has published
	// (-1 before any) — what a reassignment could resume from.
	LastCheckpoint int `json:"last_checkpoint"`
}

// Status is the coordinator's public state snapshot.
type Status struct {
	Submitted bool       `json:"submitted"`
	Job       *fleet.Job `json:"job,omitempty"`
	Done      bool       `json:"done"`
	// Failed carries the terminal error text when the job was aborted
	// (a shard exhausted its attempts).
	Failed string `json:"failed,omitempty"`

	Devices     int   `json:"devices"`
	DevicesDone int   `json:"devices_done"`
	SimDoneMS   int64 `json:"sim_done_ms"`
	SimTotalMS  int64 `json:"sim_total_ms"`
	// ElapsedMS is wall time since submission on the coordinator's
	// clock; clients derive device-days/s and ETA from it against
	// SimDone/SimTotal.
	ElapsedMS int64 `json:"elapsed_ms"`

	Shards []ShardStatus `json:"shards,omitempty"`
}

// ShardStatus is one shard's row in the status table.
type ShardStatus struct {
	Shard   int    `json:"shard"`
	RangeLo int    `json:"range_lo"`
	RangeHi int    `json:"range_hi"`
	State   string `json:"state"` // "pending" | "running" | "done"
	Runner  string `json:"runner,omitempty"`
	// Attempts counts leases so far (> 1 means the shard was reassigned
	// after a runner loss).
	Attempts       int   `json:"attempts"`
	DevicesDone    int   `json:"devices_done"`
	SimDoneMS      int64 `json:"sim_done_ms"`
	LastCheckpoint int   `json:"last_checkpoint"`
}

// Service is the coordinator's side of the conversation,
// transport-independent: one implementation (coord.Coordinator) sits
// behind every delivery mechanism. Calls that a retrying client may
// deliver twice are idempotent: a duplicate Submit of the identical
// job, a duplicate Complete from the runner that already completed the
// shard, and a duplicate Fail of an attempt already charged all return
// success rather than an error, so a lost acknowledgement costs a
// retry, never a divergence.
type Service interface {
	// Submit installs the job. A coordinator accepts exactly one;
	// re-submitting the identical job is an idempotent success.
	Submit(job fleet.Job) error
	// Claim leases the next shard to the named runner (ErrNoWork,
	// ErrDone when there is nothing to lease).
	Claim(runner string) (Task, error)
	// Heartbeat renews the runner's lease on beat.Shard and records
	// progress (ErrLeaseLost when the lease is gone).
	Heartbeat(runner string, beat Beat) error
	// Complete delivers a finished shard's partial report. Duplicates
	// from the completing runner are deduplicated.
	Complete(runner string, shard int, p *fleet.Partial) error
	// Fail reports a shard attempt that errored (as opposed to a runner
	// that silently vanished — those are caught by lease expiry). The
	// attempt key (Task.Attempt of the failing lease) deduplicates
	// retried deliveries against the shard's current lease.
	Fail(runner string, shard, attempt int, msg string) error
	// Status snapshots the run.
	Status() Status
	// Result returns the merged report's JSON once the job is done
	// (ErrNotDone before, the terminal error after a failure).
	Result(canonical bool) ([]byte, error)
}

// Conn is the runner's (client) side of a delivery mechanism: the same
// conversation, plus transport failures surfacing as ordinary errors
// and a Close. Status gains an error return for the same reason. Every
// call takes a context that cancels the in-flight request — a runner
// shutting down must not hang on a dead coordinator — and transport
// failures compose with Retry/Backoff for clients that want to ride
// them out.
type Conn interface {
	Submit(ctx context.Context, job fleet.Job) error
	Claim(ctx context.Context, runner string) (Task, error)
	Heartbeat(ctx context.Context, runner string, beat Beat) error
	Complete(ctx context.Context, runner string, shard int, p *fleet.Partial) error
	Fail(ctx context.Context, runner string, shard, attempt int, msg string) error
	Status(ctx context.Context) (Status, error)
	Result(ctx context.Context, canonical bool) ([]byte, error)
	Close() error
}
