package delivery

import (
	"context"
	"errors"
	"time"
)

// The transport retry policy shared by every component that talks
// through a Conn: runners riding out a coordinator restart, the
// submitter re-delivering a partial whose acknowledgement was lost, the
// CLI polling a coordinator that is mid-recovery. The policy is capped
// jittered exponential backoff with a per-attempt deadline; only
// transport failures are retried — protocol outcomes (the sentinels
// above) are answers, not failures, and context cancellation always
// wins. Retried calls are safe because the coordinator deduplicates
// them server-side: Submit of an identical job, Complete of a shard the
// same runner already completed, and Fail of an attempt already charged
// all return success instead of an error.

// Backoff is a capped, jittered exponential backoff policy. The zero
// value gets usable defaults; the jitter is deterministic in
// (Seed, attempt), so a seeded policy produces a reproducible delay
// schedule — the chaos suite depends on it.
type Backoff struct {
	// Base is the first retry delay (default 100ms).
	Base time.Duration
	// Cap bounds every delay (default 5s).
	Cap time.Duration
	// Factor is the per-attempt growth (default 2).
	Factor float64
	// Jitter spreads each delay to ±Jitter of its nominal value
	// (default 0.2), so a fleet of runners does not hammer a recovering
	// coordinator in lockstep. Set it negative for exactly zero jitter.
	Jitter float64
	// Seed keys the deterministic jitter stream. Runners derive it from
	// their ID so each runner jitters differently but reproducibly.
	Seed int64
	// CallTimeout is the per-attempt deadline Retry imposes on each call
	// (default 30s); the per-call context cancels the in-flight request.
	CallTimeout time.Duration
	// MaxAttempts bounds Retry (0 = until the context ends). Best-effort
	// deliveries (a runner's Fail report, covered by lease expiry
	// anyway) use a small bound instead of retrying forever.
	MaxAttempts int
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Cap <= 0 {
		b.Cap = 5 * time.Second
	}
	if b.Factor <= 1 {
		b.Factor = 2
	}
	if b.Jitter == 0 {
		b.Jitter = 0.2
	}
	if b.Jitter < 0 {
		b.Jitter = 0
	}
	if b.CallTimeout <= 0 {
		b.CallTimeout = 30 * time.Second
	}
	return b
}

// splitmix64 is the jitter hash: a full-avalanche mix of (Seed, n).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Delay returns the attempt-th (1-based) retry delay:
// min(Cap, Base·Factor^(attempt-1)), jittered to ±Jitter.
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := float64(b.Base)
	for i := 1; i < attempt; i++ {
		d *= b.Factor
		if d >= float64(b.Cap) {
			break
		}
	}
	if d > float64(b.Cap) {
		d = float64(b.Cap)
	}
	if b.Jitter > 0 {
		u := splitmix64(uint64(b.Seed)<<20 ^ uint64(attempt))
		frac := float64(u>>11) / (1 << 53) // [0,1)
		d *= 1 - b.Jitter + 2*b.Jitter*frac
	}
	if d < float64(time.Millisecond) {
		d = float64(time.Millisecond)
	}
	return time.Duration(d)
}

// IsProtocol reports whether err is one of the conversation's sentinel
// outcomes — an answer from the coordinator, as opposed to a transport
// failure worth retrying.
func IsProtocol(err error) bool {
	return errors.Is(err, ErrNoWork) || errors.Is(err, ErrDone) ||
		errors.Is(err, ErrLeaseLost) || errors.Is(err, ErrNotDone) ||
		errors.Is(err, ErrRefused)
}

// Retry runs call until it succeeds, returns a protocol outcome, the
// context ends, or MaxAttempts is exhausted. Each attempt runs under a
// CallTimeout deadline derived from ctx, so a hung request cannot stall
// the retry loop past its slice.
func Retry(ctx context.Context, b Backoff, call func(ctx context.Context) error) error {
	b = b.withDefaults()
	for attempt := 1; ; attempt++ {
		cctx, cancel := context.WithTimeout(ctx, b.CallTimeout)
		err := call(cctx)
		cancel()
		if err == nil || IsProtocol(err) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if b.MaxAttempts > 0 && attempt >= b.MaxAttempts {
			return err
		}
		t := time.NewTimer(b.Delay(attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}
