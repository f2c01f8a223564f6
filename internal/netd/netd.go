// Package netd implements Cinder's cooperative network stack (§5.5).
//
// netd owns a pooled reserve into which threads "cooperatively save up
// energy for a radio power up event". A network call whose caller —
// together with the pool — cannot afford the radio's activation cost
// blocks, contributes the energy its taps have accumulated to the pool,
// and sleeps until the pool reaches the threshold (125 % of the
// activation estimate, so senders have headroom for the packets
// themselves, Fig. 14). When the threshold is met netd debits the pool,
// powers the radio, and releases every waiting thread at once — the
// delegation mechanism that merges the staggered activations of Fig. 13a
// into the synchronized ones of Fig. 13b.
//
// Marginal packet costs are charged to each caller's own reserve, into
// debt when the cost is only known after the fact (incoming bytes,
// §5.5.2). Accurate attribution across the IPC boundary comes for free:
// applications reach netd through a kernel gate, so the calling thread
// is billed even while executing netd's code (§5.5.1).
package netd

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// GateName is the IPC entry point applications call.
const GateName = "netd.poll"

// DefaultThresholdPct is the pool threshold as a percentage of the
// radio activation estimate (§6.4: "netd requires 125 % of this level
// before turning the radio on").
const DefaultThresholdPct = 125

// SweepPeriod is how often netd sweeps waiting threads' reserves into
// the pool and re-checks the threshold.
const SweepPeriod = 100 * units.Millisecond

// Sweep boundaries lie on the tap-batch grid, so per-boundary credits
// decompose from telescoped batch flows (settleGuard, replayThrough);
// this fails to compile otherwise.
const _ = uint(-(SweepPeriod % kernel.TapBatch))

// ErrNotThread reports a gate call without a thread context.
var ErrNotThread = errors.New("netd: caller has no reserve")

// Config parameterizes a Netd instance.
type Config struct {
	// Cooperative selects the §5.5 policy. False yields the
	// "energy-unrestricted network stack" baseline of §6.4: requests go
	// straight to the radio, which bills the battery.
	Cooperative bool
	// ThresholdPct overrides DefaultThresholdPct.
	ThresholdPct int
	// Estimator optionally replaces the static activation-cost constant
	// with an online estimate refined from past activations (§9 /
	// internal/estimator). Nil keeps the offline-measured 9.5 J.
	Estimator interface{ Estimate() units.Energy }
}

// Request is the argument applications pass through the netd gate: a
// poll session against a mail or RSS server, made of one or more
// sequential request/response exchanges (a pop3 conversation is several
// round trips).
type Request struct {
	// ReqBytes is the outbound request size per exchange.
	ReqBytes int
	// RespBytes is the expected response size per exchange.
	RespBytes int
	// Exchanges is the number of sequential round trips in the session;
	// 0 means 1.
	Exchanges int
	// OnDone, if non-nil, runs when the final response has been
	// delivered.
	OnDone func(at units.Time)
}

// Stats counts netd activity.
type Stats struct {
	// PowerUps is the number of radio activations netd paid for.
	PowerUps int64
	// SettledSweeps is the number of sweep boundaries accounted in
	// closed form instead of executed as task firings. Together with the
	// engine's step counter it quantifies the busy-path win; it is
	// reported outside the canonical fleet JSON because the reference
	// configuration legitimately differs here.
	SettledSweeps int64
}

type waiter struct {
	th   *sched.Thread
	priv label.Priv
	bill *core.Reserve
	req  Request
}

// Netd is the network daemon.
type Netd struct {
	k     *kernel.Kernel
	radio *radio.Radio
	cfg   Config

	cat       label.Category
	priv      label.Priv
	pool      *core.Reserve
	container *kobj.Container
	waiters   []waiter
	stats     Stats
	poolTrace *trace.Series
	sweepTask *sim.Task

	// Closed-form sweep settlement: instead of executing a sweep every
	// 100 ms while callers wait, netd computes the exact boundary at
	// which the pool crosses the threshold, defers the sweep task there
	// (def), and replays the skipped drains in one exact fixup per
	// waiter when the kernel synchronizes or drops the deferral.
	// lastSweep is the last boundary whose waiter drains are applied
	// (executed or replayed). The scratch slices make prediction and
	// replay allocation-free in steady state.
	def       kernel.Deferral
	lastSweep units.Time
	scratch   []*core.Tap
	predTaps  []predTap
	predLvls  []int64
	// fn holds the sweep task body and the deferral's callbacks, bound
	// once so a recycled Reset re-registers them without allocating.
	fn struct {
		sweep          func(*sim.Engine)
		replay, atStop func(units.Time)
	}
}

// predTap is one constant tap feeding a waiter, as the prediction
// sees it: rdm is the per-sweep-period numerator rate·batch·(period/batch)
// in µJ·10⁻³, carry the tap's current sub-µJ residue, w the waiter
// index. The prediction stores taps in waiter order and never mutates
// them.
type predTap struct {
	rdm   int64
	carry int64
	w     int
}

// credit returns the µJ the tap credits through s sweep periods,
// ⌊(rdm·s + carry)/1000⌋ with Go's truncating division. The per-sweep
// walk — credit (rdm + carry)/1000, keep the remainder as the carry —
// telescopes to it: a negative carry, left by a proportional phase,
// credits nothing while the total stays negative, and from the first
// non-negative total on, truncation is floor division. Where rdm·s +
// carry would overflow int64 the credit exceeds 9·10¹⁵ µJ, past any
// threshold; it saturates at math.MaxInt64 instead, which can only
// predict the crossing early, the safe direction.
func (t predTap) credit(s int64) int64 {
	hi, lo := bits.Mul64(uint64(t.rdm), uint64(s))
	if hi != 0 || lo > math.MaxInt64-999 {
		return math.MaxInt64
	}
	return (int64(lo) + t.carry) / 1000
}

// New creates netd, its pooled reserve (decay-exempt: §5.5.2 trusts
// netd not to hoard), and registers its gate on the kernel.
func New(k *kernel.Kernel, r *radio.Radio, cfg Config) (*Netd, error) {
	n := &Netd{}
	if err := n.Reset(k, r, cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset reinitializes the daemon in place to the exact state New would
// produce against the given (typically recycled) kernel: fresh category,
// container, pool, gate and sweep task, all counters zero. The fleet
// runner recycles one netd per worker this way.
func (n *Netd) Reset(k *kernel.Kernel, r *radio.Radio, cfg Config) error {
	if cfg.ThresholdPct == 0 {
		cfg.ThresholdPct = DefaultThresholdPct
	}
	if n.fn.sweep == nil {
		n.fn.sweep = func(e *sim.Engine) { n.sweep(e.Now()) }
		n.fn.replay = n.replayThrough
		n.fn.atStop = n.sweep
	}
	n.k, n.radio, n.cfg = k, r, cfg
	n.cat = k.NewCategory()
	n.priv = label.NewPriv(n.cat)
	n.container = kobj.NewContainer(k.Table, k.Root, label.Public())
	poolLabel := label.Public().With(n.cat, label.Level2)
	n.pool = k.CreateReserveOpts(n.container, "netd-pool", poolLabel, core.ReserveOpts{
		DecayExempt: true,
	})
	clear(n.waiters)
	n.waiters = n.waiters[:0]
	n.stats = Stats{}
	// The pool is sampled exactly when the radio traces its states
	// (radio.Config.Trace): the two series serve the same experiments.
	switch {
	case !r.Traced():
		n.poolTrace = nil
	case n.poolTrace == nil:
		n.poolTrace = trace.NewSeries("netd-pool", "µJ")
	default:
		n.poolTrace.Reset("netd-pool", "µJ")
	}

	_, err := k.RegisterGate(n.container, GateName, label.Public(), n.priv, n.pool,
		func(call *kernel.Call) (any, error) { return nil, n.handlePoll(call) })
	if err != nil {
		return fmt.Errorf("netd: %w", err)
	}
	n.sweepTask = k.Eng.Every("netd:sweep", SweepPeriod, n.fn.sweep)
	// A Run stopping on a boundary the deferred task skipped sweeps
	// there directly (atStop), after the kernel's own at-stop work.
	k.AddDeferral(&n.def, n.sweepTask, n.fn.replay, n.fn.atStop)
	n.lastSweep = 0
	return nil
}

// SetEstimator installs an online activation-cost estimator after
// construction (Config.Estimator set late). The fleet builds netd
// before the scenario runs, but the estimator needs the device's radio
// — so scenarios wire it from Build, before the simulation starts.
// Settlement stays exact: the estimate only changes when a radio
// episode ends, and no pool-crossing deferral is in force while the
// radio is awake (settleGuard requires Sleep; a wake-up invalidates).
func (n *Netd) SetEstimator(est interface{ Estimate() units.Energy }) {
	n.cfg.Estimator = est
}

// PoolTrace returns the pool level sampled at every sweep, or nil when
// the radio is untraced.
func (n *Netd) PoolTrace() *trace.Series { return n.poolTrace }

// Stats returns a copy of the counters.
func (n *Netd) Stats() Stats { return n.stats }

// handlePoll services one gate call.
func (n *Netd) handlePoll(call *kernel.Call) error {
	th := call.Caller
	if th.ActiveReserve() == nil {
		return ErrNotThread
	}
	req, ok := call.Args.(Request)
	if !ok {
		return fmt.Errorf("netd: bad request type %T", call.Args)
	}
	// Network calls are synchronous: the caller blocks until its
	// response is delivered (and, cooperatively, until the pool can
	// afford the radio).
	th.Block()
	if !n.cfg.Cooperative {
		// Baseline: straight to the radio, marginal cost on the caller,
		// activation cost on the battery.
		n.runSession(call.Now, waiter{th: th, priv: call.BillPriv(), bill: call.BillTo(), req: req})
		return nil
	}

	n.pruneWaiters()
	w := waiter{th: th, priv: call.BillPriv(), bill: call.BillTo(), req: req}
	n.waiters = append(n.waiters, w)
	// A new waiter revives a parked sweep and changes the pool inflow,
	// so any closed-form prediction made without it is stale. (The
	// kernel's activity hooks usually dropped it already when this
	// caller's thread last woke.) The boundaries it skipped so far were
	// replayed before this callback ran.
	n.def.End()
	n.sweepTask.Resume()
	// Contribute whatever the caller's taps have accumulated (§5.5.2).
	n.contribute(w)
	if n.poolReady(call.Now) {
		n.fire(call.Now)
	}
	return nil
}

// pruneWaiters drops waiters that can never complete: their thread has
// exited or their billing reserve has died (workload teardown
// mid-wait). A dead billing reserve contributes nothing at every
// future sweep and disqualifies closed-form settlement, so a stranded
// waiter would otherwise grind the sweep task at its period for the
// rest of the run — and block checkpointing forever, since the device
// never goes netd-quiet. Energy the waiter already pooled stays in the
// pool for future sessions.
func (n *Netd) pruneWaiters() {
	kept := n.waiters[:0]
	for _, w := range n.waiters {
		if w.th.State() == sched.Exited || w.bill.Dead() {
			continue
		}
		kept = append(kept, w)
	}
	n.waiters = kept
}

// contribute sweeps the caller's available energy into the pool. A
// refused transfer leaves the energy with the caller.
func (n *Netd) contribute(w waiter) {
	n.k.Graph.TransferUpTo(w.priv, w.th.ActiveReserve(), n.pool, units.MaxEnergy)
}

// activationCost returns the energy a power-up is expected to add: the
// radio's model prediction, or the online estimator's when one is
// configured and the radio is asleep.
func (n *Netd) activationCost(now units.Time) units.Energy {
	if n.cfg.Estimator != nil && n.radio.State() == radio.Sleep {
		return n.cfg.Estimator.Estimate()
	}
	return n.radio.ActivationCost(now)
}

// threshold returns the pool level required before powering the radio.
func (n *Netd) threshold(now units.Time) units.Energy {
	return n.activationCost(now) * units.Energy(n.cfg.ThresholdPct) / 100
}

// poolReady reports whether the pool can cover the current threshold.
func (n *Netd) poolReady(now units.Time) bool {
	lvl, err := n.pool.Level(n.priv)
	if err != nil {
		return false
	}
	need := n.threshold(now)
	return lvl >= need
}

// sweep runs periodically: waiting threads keep contributing their tap
// inflow, and the pool fires when it reaches the threshold. Under
// closed-form settlement a sweep that leaves the pool short re-predicts
// the crossing instant and defers the task there instead of grinding
// through every 100 ms boundary in between, and a sweep with no waiter
// parks the task until a caller arrives: it changes no state but the
// pool trace, so it parks only when the pool is untraced, and only on a
// production kernel (the reference executes every sweep).
func (n *Netd) sweep(now units.Time) {
	if n.poolTrace != nil {
		n.poolTrace.Add(now, func() int64 {
			lvl, _ := n.pool.Level(n.priv)
			return int64(lvl)
		}())
	}
	n.def.End()
	n.lastSweep = now
	n.pruneWaiters()
	if len(n.waiters) == 0 {
		if n.poolTrace == nil && n.def.Enabled() {
			n.sweepTask.Park()
		}
		return
	}
	for _, w := range n.waiters {
		n.contribute(w)
	}
	if n.poolReady(now) {
		n.fire(now)
		return
	}
	n.maybeSettle(now)
}

// maybeSettle predicts the boundary at which the pool will cross the
// threshold and defers the sweep task there. The kernel keeps the
// deferral exact (see kernel.Deferral): it replays the skipped drains
// before every executed instant, any activity that could perturb the
// prediction ends it, and a prediction that fires early is harmless —
// the sweep re-checks and re-predicts.
func (n *Netd) maybeSettle(now units.Time) {
	if !n.def.Enabled() || now%SweepPeriod != 0 || !n.settleGuard() {
		return
	}
	t := n.predictFire(now)
	if t <= now+SweepPeriod {
		return // next boundary fires anyway; stay on the grid
	}
	n.def.Defer(t)
}

// settleGuard reports whether the pooling loop is in the regime the
// closed-form model covers exactly:
//
//   - the radio is untraced — a pool trace samples every boundary,
//     which skipping would lose (traced experiments fall back to
//     per-sweep execution, preserving the frozen plot hashes);
//   - the radio is asleep, so the activation cost — and with it the
//     threshold — is constant until a wake-up, which invalidates;
//   - no tap touches the pool, so contributions are its only inflow;
//   - every waiter's billing reserve is alive, drained by no tap, and
//     fed only by constant-rate taps (proportional inflow is
//     level-coupled and does not telescope) whose carries are
//     non-negative. A proportional phase on a reserve in debt leaves a
//     negative carry; from a non-negative one, a non-negative rate keeps
//     the carry in [0, 1000) until SetRate or SetFrac, which
//     invalidates, so replayThrough recovers the carry at a skipped
//     boundary from the current one exactly;
//   - no such tap draws from a decaying source: the deferral is capped
//     by the depletion horizon, which counts tap outflow only, and a
//     source that decay also leaks could starve its tap inside it.
//
// Decay bites on a waiter's own reserve need no guard. The kernel
// applies them inside settled windows too, but replays this
// deferral's skipped drains strictly before each, so a bite reads the
// level per-sweep execution leaves. A bite only takes from a positive
// level and leaves it non-negative, and the next drain empties a
// positive level anyway, so the reserve's level after that drain is
// the same with or without the bite: the drains replayThrough applies
// across a bite still total max(0, level − ρ), the current level
// already net of the leak. A prediction that ignores future bites
// only errs early.
func (n *Netd) settleGuard() bool {
	if n.radio.Traced() {
		return false
	}
	if n.radio.State() != radio.Sleep {
		return false
	}
	g := n.k.Graph
	if g.ReserveTapped(n.pool) {
		return false
	}
	for i := range n.waiters {
		w := &n.waiters[i]
		if w.bill == nil || w.bill.Dead() {
			return false
		}
		if g.ReserveDrainedByTap(w.bill) {
			return false
		}
		n.scratch = g.TapsInto(w.bill, n.scratch[:0])
		for _, t := range n.scratch {
			if t.Kind() != core.TapConst || t.Carry() < 0 || t.SourceDecays() {
				return false
			}
		}
	}
	return true
}

// sweepCap bounds how many sweep periods one prediction looks ahead.
const sweepCap = 1 << 14

// predictFire returns the first sweep boundary after now at which the
// pool reaches the threshold, capped at the depletion horizon — beyond
// it a source could clamp and constant-rate extrapolation lies — and at
// sweepCap sweeps; a capped prediction just re-predicts when the sweep
// fires there. It models the per-boundary drains in closed form (see
// crossingSweep). Returns 0 when no boundary can be trusted.
func (n *Netd) predictFire(now units.Time) units.Time {
	poolLvl, err := n.pool.Level(n.priv)
	if err != nil {
		return 0
	}
	need := n.threshold(now)
	dt := kernel.TapBatch
	m := int64(SweepPeriod / dt)
	maxSweeps := n.k.SweepHorizonBatches() / m
	if maxSweeps > sweepCap {
		maxSweeps = sweepCap
	}
	if maxSweeps < 2 {
		return 0
	}
	n.predTaps = n.predTaps[:0]
	n.predLvls = n.predLvls[:0]
	for i := range n.waiters {
		w := &n.waiters[i]
		lvl, err := w.bill.Level(w.priv)
		if err != nil || lvl > 0 {
			// Unreadable or undrainable (a failing contribute leaves a
			// surplus): model the reserve as drained. Extra modeled
			// contributions only predict the crossing early, which is
			// safe — the sweep fires, re-checks, re-predicts.
			lvl = 0
		}
		n.predLvls = append(n.predLvls, int64(lvl))
		n.scratch = n.k.Graph.TapsInto(w.bill, n.scratch[:0])
		for _, t := range n.scratch {
			n.predTaps = append(n.predTaps, predTap{
				rdm:   int64(t.Rate()) * int64(dt) * m,
				carry: t.Carry(),
				w:     i,
			})
		}
	}
	s := crossingSweep(n.predTaps, n.predLvls, int64(poolLvl), int64(need), maxSweeps)
	return now + units.Time(s)*SweepPeriod
}

// crossingSweep returns the first sweep s in [1, maxSweeps] after which
// the pool holds at least need, or maxSweeps when none does. lvls are
// the waiters' levels L₀ ≤ 0 after the last drain; taps feed them, in
// waiter order.
//
// Every boundary drains each waiter's positive level into the pool. A
// waiter's level through s sweeps, undrained, is L₀ + C(s), where C(s)
// sums its taps' credits (predTap.credit); C never falls, because
// SetRate refuses negative rates. By induction on s the drains through
// boundary s then move max(0, L₀ + C(s)) in total — the identity
// replayThrough applies — so the pool after s sweeps is
//
//	pooled(s) = pool + Σ_waiters max(0, L₀ + C(s)),
//
// non-decreasing in s, and a binary search finds the first crossing in
// O(taps · log maxSweeps).
func crossingSweep(taps []predTap, lvls []int64, pool, need, maxSweeps int64) int64 {
	lo, hi := int64(1), maxSweeps
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pooledAfter(taps, lvls, pool, mid) >= need {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// pooledAfter returns pooled(s), saturating at math.MaxInt64.
func pooledAfter(taps []predTap, lvls []int64, pool, s int64) int64 {
	ti := 0
	for wi, lvl := range lvls {
		for ; ti < len(taps) && taps[ti].w == wi; ti++ {
			lvl = addSat(lvl, taps[ti].credit(s))
		}
		if lvl > 0 {
			pool = addSat(pool, lvl)
		}
	}
	return pool
}

// addSat returns a+b for b ≥ 0, saturating at math.MaxInt64.
func addSat(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// replayThrough is the deferral's replay: it applies, in one exact fixup
// per waiter, the drains the deferred sweep task skipped at every
// boundary in (lastSweep, limit].
// For a reserve whose only credits are non-negative constant-tap flows,
// draining max(0, level) at boundaries b₁..bₖ moves in total
// max(0, L₀ + Cₖ) — L₀ the level after the lastSweep drain, Cₖ the
// credits through bₖ — and leaves min(0, L₀+Cₖ). The current level
// already includes ρ, the credits applied after bₖ (the kernel settles
// batches before any deferral replays), so the fixup transfers
// max(0, level−ρ); ρ decomposes backward from each tap's current carry,
// since constant-tap carries evolve linearly mod 1000 and, by
// settleGuard, stay in [0, 1000). The fixup transfers fire the graph's
// tap-activity hook; the deferral's replay guard keeps them from ending
// the deferral they service.
func (n *Netd) replayThrough(limit units.Time) {
	last := limit - limit%SweepPeriod
	if last <= n.lastSweep {
		return
	}
	swept := int64((last - n.lastSweep) / SweepPeriod)
	settled := n.k.TapsSettledThrough()
	dt := kernel.TapBatch
	g := n.k.Graph
	for i := range n.waiters {
		w := &n.waiters[i]
		lvl, err := w.bill.Level(w.priv)
		if err != nil {
			// Per-sweep execution's TransferUpTo fails identically at
			// every skipped boundary, moving nothing.
			continue
		}
		var rho units.Energy
		if settled > last {
			j := int64((settled - last) / dt)
			n.scratch = g.TapsInto(w.bill, n.scratch[:0])
			for _, t := range n.scratch {
				tot := int64(t.Rate()) * int64(dt) * j
				carry := t.Carry()
				start := ((carry-tot)%1000 + 1000) % 1000
				rho += units.Energy((tot + start - carry) / 1000)
			}
		}
		if pre := lvl - rho; pre > 0 {
			g.TransferUpTo(w.priv, w.bill, n.pool, pre)
		}
	}
	n.stats.SettledSweeps += swept
	n.lastSweep = last
}

// fire pays the radio's activation estimate out of the pool and
// releases every waiter: "every 60 seconds enough energy is saved to
// use the radio and both applications proceed simultaneously" (§6.4).
func (n *Netd) fire(now units.Time) {
	cost := n.activationCost(now)
	if cost > 0 {
		if _, err := n.k.Graph.TransferUpTo(n.priv, n.pool, n.radio.FundingReserve(), cost); err != nil {
			return
		}
		n.stats.PowerUps++
	}
	waiters := n.waiters
	n.waiters = nil
	for _, w := range waiters {
		n.runSession(now, w)
	}
}

// runSession drives the waiter's sequential exchanges and wakes the
// thread when the last response lands. Exchanges after the first run
// against an already-active radio, extending its idle window — the
// §5.5 cost model's "back-to-back actions are cheaper" regime.
func (n *Netd) runSession(now units.Time, w waiter) {
	remaining := w.req.Exchanges
	if remaining <= 0 {
		remaining = 1
	}
	var doOne func(at units.Time)
	doOne = func(at units.Time) {
		remaining--
		if remaining == 0 {
			n.radio.Exchange(at, w.req.ReqBytes, w.req.RespBytes,
				w.bill, w.priv, func(done units.Time) {
					w.th.Wake()
					if w.req.OnDone != nil {
						w.req.OnDone(done)
					}
				})
			return
		}
		n.radio.Exchange(at, w.req.ReqBytes, w.req.RespBytes,
			w.bill, w.priv, doOne)
	}
	doOne(now)
}
