// Package kernel assembles the Cinder simulation: it owns the virtual
// clock, the kernel object table, the resource-consumption graph, the
// energy-aware scheduler, the device power model, and the gate IPC
// mechanism whose billing semantics are the paper's §5.5.1 ("the caller
// of a system-wide service, like netd, is billed for resource
// consumption it causes, even while executing in the other address
// space").
//
// A Kernel runs its periodic activities on its engine, mirroring the
// paper's implementation notes:
//
//   - the scheduler runs every tick (1 ms quantum);
//   - taps flow in batch every TapBatch (10 ms), "to minimize scheduling
//     and context-switch overheads" (§3.3), and the same batch bills the
//     baseline device power (the Dream's 699 mW idle, plus 555 mW when
//     the backlight is on) directly from the battery, so the attached
//     power meter reproduces the Agilent traces;
//   - the global half-life decay applies every second (§5.2.2). On
//     production kernels the bite rides with the batch at each whole
//     second (biteAt), so a busy device need not execute every simulated
//     second, and a quiet window's bites settle in one pass where none
//     needs per-second order (settleBites); the reference executes its
//     own 1 s decay task.
package kernel

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/units"
)

// TapBatch is the tap flow and baseline billing interval. It divides
// 1 s, so every whole second, where a production kernel applies that
// second's decay bite, is a batch boundary.
const TapBatch = 10 * units.Millisecond

// A compile-time check that TapBatch divides 1 s.
const _ = uint(-(units.Second % TapBatch))

// BillingMode selects how gate calls attribute resource consumption
// (§7.1).
type BillingMode uint8

const (
	// BillCaller is Cinder-HiStar semantics: the calling thread's
	// reserve pays for work a daemon performs on its behalf.
	BillCaller BillingMode = iota
	// BillDaemon reproduces the Cinder-Linux problem: message-passing
	// IPC cannot identify the caller, so consumption lands on the
	// daemon's own reserve.
	BillDaemon
)

// Config parameterizes a Kernel.
type Config struct {
	// Profile is the device power model; defaults to power.Dream().
	Profile power.Profile
	// Seed feeds the deterministic random source.
	Seed int64
	// BatteryCapacity overrides the profile's battery.
	BatteryCapacity units.Energy
	// DecayHalfLife overrides core.DefaultHalfLife; negative disables.
	DecayHalfLife units.Time
	// Billing selects gate billing semantics; default BillCaller.
	Billing BillingMode
	// Reference selects the reference configuration the differential
	// tests check production against: the fixed-tick engine with every
	// periodic task — scheduler, batches, decay, devices, netd sweeps,
	// charger quanta — executed at its period, and nothing
	// settled in closed form. Production (the zero value) runs the
	// next-event engine with closed-form settlement; the two are
	// byte-identical in every energy, lifetime and workload quantity.
	Reference bool
	// StrictHoarding enables the §5.2.2 fundamental anti-hoarding rule.
	StrictHoarding bool
	// BacklightOn adds the backlight draw to the baseline.
	BacklightOn bool
}

// Kernel is one simulated Cinder instance.
type Kernel struct {
	Eng     *sim.Engine
	Table   *kobj.Table
	Root    *kobj.Container
	Graph   *core.Graph
	Sched   *sched.Scheduler
	Profile power.Profile

	billing     BillingMode
	kpriv       label.Priv
	sysCategory label.Category
	nextCat     label.Category
	gates       map[string]*Gate
	baseCarry   int64
	backlight   bool
	// devices receive a callback each tick so peripherals (the radio)
	// can advance their state machines and bill their draw. The optional
	// interfaces (quiescence, settlement) are asserted once at AddDevice
	// so the per-instant quiescence checks do no dynamic type tests.
	devices []deviceEntry

	// Quiescence and settlement machinery (production kernels only; the
	// reference executes every firing). When no thread is runnable the
	// scheduler task defers to the earliest sleeping-thread wake (or
	// parks), and skipped quanta are settled as idle ticks. The batch
	// and device tasks park outright whenever possible and everything
	// they skipped — batches, device ticks — settles lazily via syncAt
	// before any callback at an executed instant, in closed form inside
	// the depletion horizon and by exact replay outside it. Activity
	// hooks (thread wake/creation, tap activation, radio wake-up) resume
	// the tasks instantly, so the callback sequence — and therefore
	// every experiment Result — is byte-identical to a tick-by-tick run.
	// taskDecay is the reference's 1 s decay task (nil on production
	// kernels and with decay disabled).
	taskDevices *sim.Task
	taskSched   *sim.Task
	taskBatch   *sim.Task
	taskDecay   *sim.Task
	// lastSchedAt is the instant of the last scheduler quantum.
	lastSchedAt units.Time
	// lazySettle is set on production kernels, whose engine is
	// next-event, and clear on the reference. batchPending /
	// devicesPending are the earliest batch boundary not yet flowed and
	// billed and the earliest tick not yet device-ticked.
	lazySettle     bool
	batchPending   units.Time
	devicesPending units.Time
	// fn holds the task bodies and hooks bound once per Kernel (bind),
	// so a recycled Reset re-registers them without allocating a
	// closure, and settleBatches hands SettleFlows its interleave
	// callback without allocating one per settlement window.
	fn struct {
		devices, sched, batch, decay func(*sim.Engine)
		decayActivity, resume        func()
		advance                      func(units.Time)
		billBaseline                 func(int64)
	}
	// deferrals are the registered Deferrals (netd, the battery
	// charger), synchronized at every executed instant and invalidated
	// from the activity hooks.
	deferrals []*Deferral
	// charger is the optional battery charger (AttachCharger); nil on
	// discharge-only kernels, which is every kernel the frozen
	// experiments build.
	charger *BatteryCharger
	// skipTaps is scratch for the throttled-quantum skip's inflow scan,
	// keeping the busy-path prediction allocation-free.
	skipTaps []*core.Tap
}

// deviceEntry caches a registered device's optional capabilities.
type deviceEntry struct {
	dev Device
	// quiescent is non-nil iff dev implements QuiescentDevice.
	quiescent QuiescentDevice
	// settleable is non-nil iff dev implements SettleableDevice.
	settleable SettleableDevice
}

// Device is a peripheral that advances once per tick.
type Device interface {
	DeviceTick(now units.Time, dt units.Time)
}

// QuiescentDevice is optionally implemented by devices whose ticks are
// periodically no-ops (a sleeping radio). The kernel skips device ticks
// only while every registered device reports quiescence; devices without
// the method are assumed always-active.
type QuiescentDevice interface {
	Quiescent() bool
}

// deviceActivityNotifier is optionally implemented by devices that can
// leave quiescence asynchronously (a radio woken by a Send from an
// event); the kernel subscribes to resume its device task.
type deviceActivityNotifier interface {
	SetActivityHook(func())
}

// SettleableDevice is optionally implemented by devices whose per-tick
// behaviour between external inputs is fully determined — constant-power
// state spans with transitions at known instants (the radio) — and can
// therefore be settled in closed form. While every non-quiescent device
// is settleable, the kernel parks its device task and replays the
// skipped ticks lazily through SettleTicks.
type SettleableDevice interface {
	Device
	// SettleTicks performs exactly the DeviceTick calls the parked
	// device task skipped: one per tick instant from `from` through `to`
	// inclusive. No external input (Send, gate call, …) occurs inside
	// the span — those happen at executed instants, after settlement has
	// already caught up.
	SettleTicks(from, to, dt units.Time)
	// PeakDraw bounds the device's possible per-tick draw, charged
	// against the battery's depletion horizon before a span is settled.
	PeakDraw() units.Power
	// SettleSafe reports whether the device's pending ticks commute
	// with tap flows right now. Settlement reorders device billing
	// against tap flows, which is only exact while no active tap
	// interferes with the device's billing targets; the device judges
	// that from its own knowledge of those targets (the radio: no active
	// tap touches its fund; smdd: see its commutation argument). It runs
	// at every executed instant, so it must not allocate.
	SettleSafe() bool
}

// New builds a kernel and registers its periodic activities on a fresh
// engine.
func New(cfg Config) *Kernel {
	k := &Kernel{}
	k.bind()
	k.init(cfg, false)
	return k
}

// bind creates the kernel's task bodies and hooks as method values once;
// init registers them on every (re)initialization.
func (k *Kernel) bind() {
	k.fn.devices = k.devicesTask
	k.fn.sched = k.schedTask
	k.fn.batch = k.batchTask
	k.fn.decay = k.decayTask
	k.fn.decayActivity = k.decayActivity
	k.fn.resume = k.resumeKernelTasks
	k.fn.advance = k.syncAtAdvance
	k.fn.billBaseline = k.billBaselineBatches
}

// Reset reinitializes the kernel in place to the exact state New(cfg)
// would produce, recycling the engine, the object table, the graph and
// the scheduler instead of constructing fresh ones. Everything from the
// previous life — reserves, taps, threads, gates, devices, events — is
// forgotten; the caller must rebuild its world (and drop every old
// handle) just as after New. The fleet runner recycles one kernel per
// worker this way instead of building 100k object graphs.
func (k *Kernel) Reset(cfg Config) { k.init(cfg, true) }

func (k *Kernel) init(cfg Config, recycle bool) {
	if cfg.Profile.Name == "" {
		cfg.Profile = power.Dream()
	}
	if cfg.BatteryCapacity == 0 {
		cfg.BatteryCapacity = cfg.Profile.BatteryCapacity
	}
	mode := sim.ModeNextEvent
	if cfg.Reference {
		mode = sim.ModeFixedTick
	}
	if recycle {
		k.Eng.Reset(cfg.Seed, mode)
		k.Table.Reset()
	} else {
		k.Eng = sim.NewEngineMode(cfg.Seed, mode)
		k.Table = kobj.NewTable()
	}
	eng := k.Eng
	k.Root = kobj.NewContainer(k.Table, nil, label.Public())
	k.Profile = cfg.Profile
	k.billing = cfg.Billing
	if k.gates == nil {
		k.gates = make(map[string]*Gate)
	} else {
		clear(k.gates)
	}
	k.nextCat = 2 // category 1 is the kernel's
	k.backlight = cfg.BacklightOn
	k.sysCategory = 1
	k.kpriv = label.NewPriv(k.sysCategory).WithClearance(label.Level3)
	k.baseCarry = 0
	clear(k.devices)
	k.devices = k.devices[:0]
	k.lastSchedAt = 0
	k.batchPending = 0
	k.devicesPending = 0
	clear(k.deferrals)
	k.deferrals = k.deferrals[:0]
	k.charger = nil

	batteryLabel := label.Public().With(k.sysCategory, label.Level2)
	graphCfg := core.Config{
		BatteryCapacity: cfg.BatteryCapacity,
		DecayHalfLife:   cfg.DecayHalfLife,
		StrictHoarding:  cfg.StrictHoarding,
	}
	if recycle {
		k.Graph.Reset(k.Table, k.Root, batteryLabel, graphCfg)
		k.Sched.Reset(cfg.Profile.CPUActive)
	} else {
		k.Graph = core.NewGraph(k.Table, k.Root, batteryLabel, graphCfg)
		k.Sched = sched.New(k.Table, cfg.Profile.CPUActive)
	}

	k.lazySettle = !cfg.Reference

	tick := eng.Tick()
	k.taskDevices = eng.Every("kernel:devices", tick, k.fn.devices)
	k.taskSched = eng.Every("kernel:sched", tick, k.fn.sched)
	k.taskBatch = eng.Every("kernel:batch", TapBatch, k.fn.batch)
	k.taskDecay = nil
	if k.Graph.HalfLife() >= 0 {
		if !k.lazySettle {
			k.taskDecay = eng.Every("kernel:decay", units.Second, k.fn.decay)
		}
		k.Graph.SetDecayActivityHook(k.fn.decayActivity)
	}
	if k.lazySettle {
		eng.SetAdvanceHook(k.fn.advance)
		k.Sched.SetActivityHook(k.fn.resume)
		k.Graph.SetTapActivityHook(k.fn.resume)
	}
}

// devicesTask is the kernel:devices task body.
func (k *Kernel) devicesTask(e *sim.Engine) {
	k.fireDevices(e.Now())
	if k.lazySettle && (k.devicesQuiescent() || k.devicesSettleable()) {
		k.taskDevices.Park()
	}
}

// schedTask is the kernel:sched task body: it settles the quanta a
// deferral skipped as idle ticks, then runs this quantum.
func (k *Kernel) schedTask(e *sim.Engine) {
	now, tick := e.Now(), e.Tick()
	if skipped := int64((now-k.lastSchedAt)/tick) - 1; skipped > 0 {
		k.Sched.AddIdleTicks(skipped)
	}
	k.lastSchedAt = now
	k.Sched.Tick(now, tick)
	k.maybeQuiesceSched(now)
}

// batchTask is the kernel:batch task body.
func (k *Kernel) batchTask(e *sim.Engine) {
	k.fireBatch(e.Now())
	if k.lazySettle {
		k.taskBatch.Park()
	}
}

// decayTask is the reference's kernel:decay task body: it bites, and
// parks while no decayable reserve exists, since every firing would be a
// no-op until one is created.
func (k *Kernel) decayTask(*sim.Engine) {
	k.Graph.Decay(units.Second)
	if k.Graph.DecayableCount() == 0 {
		k.taskDecay.Park()
	}
}

// decayActivity is the graph's decay-activity hook: a new decayable
// reserve resumes the reference's decay task, and introduces 1 s decay
// bites that a deferral's prediction did not model.
func (k *Kernel) decayActivity() {
	if !k.lazySettle {
		k.taskDecay.Resume()
	}
	k.invalidateDeferrals()
}

// devicesQuiescent reports whether every registered device declares its
// ticks to currently be no-ops. Devices not implementing
// QuiescentDevice are assumed always-active.
func (k *Kernel) devicesQuiescent() bool {
	for i := range k.devices {
		q := k.devices[i].quiescent
		if q == nil || !q.Quiescent() {
			return false
		}
	}
	return true
}

// maybeQuiesceSched defers the scheduler task when its next quanta are
// provably idle: either no thread is runnable, or every runnable thread
// is energy-throttled past the deferral target (maybeSkipThrottled). In
// both regimes skipped quanta are pure idleTicks, settled in closed
// form by the catch-up in the task body and by settle. The task defers
// to the earliest sleeping-thread wake (or throttle pay-off bound), or
// parks outright when nothing is pending; thread creation, Wake and
// reserve activity resume it instantly via the activity hooks. It runs
// from within the scheduler task's own callback — the engine preserves
// a self-deferral instead of rearming the task on its period grid.
func (k *Kernel) maybeQuiesceSched(now units.Time) {
	if !k.lazySettle {
		return
	}
	if k.Sched.RunnableCount() > 0 {
		k.maybeSkipThrottled(now)
		return
	}
	if wake, ok := k.Sched.NextWake(); ok {
		k.taskSched.DeferUntil(wake)
	} else {
		k.taskSched.Park()
	}
}

// maybeSkipThrottled defers the scheduler task across a span of quanta
// that are provably throttled: runnable threads exist, but none of them
// can pay for a quantum before the deferral target even if every
// constant tap feeding its reserves were credited unclamped. This is
// the engine-side complement of §3.2's energy throttling — a thread in
// debt with a slow pay-down tap otherwise pins the scheduler (and, via
// the per-instant settlement dance, the whole kernel) at tick rate for
// the entire pay-down, the dominant instant cost of a device's final
// browse-in-debt minutes.
//
// Exactness: in a tick-by-tick run every skipped quantum is an idle
// tick (Tick finds no payable thread), so the closed-form catch-up in
// the task body and in settle reproduces Consumed, BusyTicks, IdleTicks
// and Utilization byte-identically. Only the per-thread throttle
// diagnostic stops counting attempts that were never made; it feeds no
// Result. The bound is sound because every ignored effect — clamping,
// decay leakage, outflow taps, other threads' billing — only lowers a
// reserve's true level below the unclamped-inflow projection, and every
// credit outside the flow machinery (transfers, reserve teardown
// refunds, draw-list changes, thread wakes) fires an activity hook that
// resumes the task.
func (k *Kernel) maybeSkipThrottled(now units.Time) {
	tick := k.Eng.Tick()
	cost := k.Sched.CPUPower().Over(tick)
	if cost <= 0 {
		return // free quanta always run
	}
	earliest := sim.MaxTime
	sound := true
	k.Sched.EachThread(func(t *sched.Thread) {
		if !sound || earliest <= now+tick || t.State() != sched.Runnable {
			return
		}
		e, ok := k.threadPayableBound(t, cost, now, tick)
		if !ok {
			sound = false
			return
		}
		if e < earliest {
			earliest = e
		}
	})
	if !sound || earliest <= now+tick {
		return // unpredictable, or a thread may already run next quantum
	}
	if wake, ok := k.Sched.NextWake(); ok && wake < earliest {
		earliest = wake
	}
	if earliest <= now+tick {
		return
	}
	if earliest == sim.MaxTime {
		// No inflow can ever make a thread payable and nothing sleeps:
		// only hooked activity (a transfer, a new tap, a wake) can change
		// that, and the hook resumes the task.
		k.taskSched.Park()
		return
	}
	k.taskSched.DeferUntil(earliest)
}

// threadPayableBound returns a lower bound on the first scheduler
// instant > now at which t could afford one quantum. ok is false when
// no sound bound exists from inflow alone: a reserve whose label the
// thread cannot currently use (a relabel is unhooked), the battery
// (credited by decay and teardown refunds outside the hooks), an
// unreadable level, or proportional inflow (level-coupled, does not
// telescope). Dead reserves can never pay again and are skipped.
func (k *Kernel) threadPayableBound(t *sched.Thread, cost units.Energy, now, tick units.Time) (units.Time, bool) {
	earliest := sim.MaxTime
	bat := k.Graph.Battery()
	sound := true
	t.EachReserve(func(r *core.Reserve) bool {
		if r.Dead() {
			return true
		}
		if r == bat || !t.Priv().CanUse(r.Label()) {
			sound = false
			return false
		}
		lvl, err := r.Level(k.kpriv)
		if err != nil {
			sound = false
			return false
		}
		if lvl >= cost {
			// Payable already: round-robin reaches it next quantum.
			earliest = now + tick
			return false
		}
		deficit := int64(cost - lvl)
		if deficit > 1<<40 {
			// Far beyond any modeled reserve; refuse rather than risk
			// overflow in the fixed-point arithmetic below.
			sound = false
			return false
		}
		k.skipTaps = k.Graph.TapsInto(r, k.skipTaps[:0])
		var num, carry int64
		for _, tp := range k.skipTaps {
			if tp.Kind() != core.TapConst {
				sound = false
				return false
			}
			num += int64(tp.Rate()) * int64(TapBatch)
			carry += tp.Carry()
		}
		if num <= 0 {
			return true // no standing inflow; only hooked activity refills
		}
		// Smallest batch count q whose unclamped telescoped credit
		// (num·q + carry) div 1000 covers the deficit. The telescoped sum
		// over-credits the real flow (per-tap floors and source clamping
		// only lose energy), so the true first-payable instant is never
		// earlier than the bound.
		need := deficit*1000 - carry
		q := (need + num - 1) / num
		if q < 1 {
			q = 1
		}
		// The q-th future batch boundary (multiples of TapBatch at or
		// after now; the boundary at now itself has not credited when the
		// scheduler observes lvl) must have settled strictly before the
		// first quantum that could pay.
		b0 := now + (TapBatch-now%TapBatch)%TapBatch
		if e := b0 + units.Time(q-1)*TapBatch + 1; e < earliest {
			earliest = e
		}
		return true
	})
	return earliest, sound
}

// resumeKernelTasks revives every deferred kernel task; it runs from the
// activity hooks (thread created or woken, tap activated, radio woken)
// and is a near-no-op when nothing is deferred. The batch task stays
// parked — its boundaries settle lazily and the boundary-at-now dance in
// syncAt hands it back its registration slot — but the device task is
// revived so it can re-evaluate whether its settlement preconditions
// still hold (a freshly activated tap may now touch a device's private
// account).
func (k *Kernel) resumeKernelTasks() {
	k.taskSched.Resume()
	k.taskDevices.Resume()
	// Every activity this hook observes — a thread able to run, a tap
	// activated, changed or released, the radio waking — can perturb a
	// deferral's closed-form prediction; drop it and let the owner
	// re-establish one from post-activity state.
	k.invalidateDeferrals()
}

// syncAtAdvance is the advance-hook flavour of syncAt: it first tries
// the fast boundary path, which handles the common quiescent instant —
// no event due, scheduler parked, devices quiescent or settleable — in
// one settlement call instead of resuming, firing and re-parking the
// boundary tasks. Direct syncAt callers (SetBacklight, about to
// change a rate themselves) must not take the fast path: it performs
// boundary work at pre-event rates, which is only exact when nothing at
// the instant can change them.
func (k *Kernel) syncAtAdvance(now units.Time) {
	if k.fastBoundary(now) {
		return
	}
	k.syncAt(now)
}

// fastBoundary settles everything due up to and *including* now — the
// work syncAt would split into a strictly-before settlement plus the
// boundary-at-now task dance — and reports whether it did. It is exact
// only when nothing executing at this instant can affect that work:
//
//   - no pending event fires here (events may change rates, and
//     boundary work must run at post-event rates);
//   - the scheduler task is not due (a scheduled thread runs before the
//     batch slot and may change rates; the kernel's tasks are registered
//     first, so nothing else precedes them);
//   - every device is quiescent or settleable, so the device boundary
//     tick telescopes like the rest of the span;
//   - the boundary tasks themselves are parked past now (always true
//     once each has fired once);
//   - this is not a RunUntil entry instant, where rewindDue is about to
//     re-arm the parked tasks for the Run-boundary re-step — settling
//     through now as well would perform the boundary work twice.
func (k *Kernel) fastBoundary(now units.Time) bool {
	if k.taskDevices.NextDue() <= now || k.taskBatch.NextDue() <= now ||
		k.taskSched.NextDue() <= now {
		return false
	}
	eng := k.Eng
	if eng.EntryInstant() || eng.PendingEventAt(now) {
		return false
	}
	if !k.devicesQuiescent() && !k.devicesSettleable() {
		return false
	}
	if k.devicesPending > now && k.batchPending > now {
		k.syncDeferrals(now)
		return true // nothing due through now
	}
	k.settleWindow(now, now)
	k.syncDeferrals(now)
	return true
}

// settleWindow advances the pending cursors through their limits. A
// window that holds two or more decay bites first tries to settle them
// all, through the last whole second at or before batchLimit, in one
// pass (settleBites), which plans the graph once for the window — a
// hoarder's window included, whose taxed hoard bites inside the pass's
// replay. Where that declines, the bites settle as segments ending at
// each bite boundary b — devices and batches through b, then the bite —
// so every bite reads the levels the reference's decay task reads at b,
// and no segment's ordering proof (windowSafe, the depletion horizon)
// spans a bite, which leaks energy that proof does not count. The pass
// is tried once per window, so a window it declines pays for one extra
// plan, not one per second.
func (k *Kernel) settleWindow(devLimit, batchLimit units.Time) {
	if b, last := k.nextBite(k.batchPending), batchLimit-batchLimit%units.Second; b < last {
		k.settleBites(b, last)
	}
	for {
		b := k.nextBite(k.batchPending)
		if b > batchLimit {
			break
		}
		k.settleSegment(min(devLimit, b), b)
	}
	k.settleSegment(devLimit, batchLimit)
}

// settleBites settles the batches through last and the bites from first
// to last, both whole seconds, in one pass when no device or deferral
// needs those bites in per-second order: every device is quiescent, so
// the device ticks in between are no-ops and the window's last segment
// advances their cursor; no deferral stands, so no bite waits on a
// replay (biteAt); and the graph accepts the window
// (core.Graph.SettleBites), keeping inside its pass the per-second order
// that a reserve read by a proportional tap, such as a taxed hoard,
// needs. The baseline then bills once for every batch. A declined
// window is left as it was.
func (k *Kernel) settleBites(first, last units.Time) {
	if !k.devicesQuiescent() || k.deferralStanding() {
		return
	}
	firstBatches := int64((first-k.batchPending)/TapBatch) + 1
	bites := int64((last-first)/units.Second) + 1
	if k.Graph.SettleBites(TapBatch, firstBatches, bites, k.baselinePower()) {
		k.billBaselineBatches(int64((last-k.batchPending)/TapBatch) + 1)
		k.batchPending = last + TapBatch
	}
}

// settleSegment settles a window that holds no decay bite before its
// end by the cheapest exact strategy: with every device quiescent the
// device ticks are no-ops, so no ordering proof is needed and
// SettleFlows / billBaselineBatches self-guard their own clamping
// exactly; otherwise the depletion horizon must clear the whole window
// before device billing may be reordered against batches, and a window
// it cannot clear replays instant by instant.
func (k *Kernel) settleSegment(devLimit, batchLimit units.Time) {
	if !k.devicesQuiescent() && !k.windowSafe(devLimit, batchLimit) {
		k.replayWindow(devLimit, batchLimit)
		return
	}
	k.settleDevices(devLimit)
	k.settleBatches(batchLimit)
}

// syncAt is the engine's advance hook: it runs once per executed
// instant, before any callback at that instant, and settles every batch
// and device tick that came due while the corresponding tasks were
// parked — so meters, experiments, the
// scheduler and netd always observe reserves exactly as a tick-by-tick
// run would have left them. Work due strictly before the instant is
// settled here; work due exactly at the instant is handed back to its
// parked task, which then fires in its registration slot after the
// instant's events — an event at the boundary may change a rate
// (SetRate, SetBacklight, a radio Send), and the fixed-tick engine
// performs the boundary's work at the post-event rate. A reference
// kernel executes every firing, so there is nothing to settle.
func (k *Kernel) syncAt(now units.Time) {
	if !k.lazySettle {
		return
	}
	k.syncPendingBefore(now)
	if k.devicesPending == now && k.taskDevices.NextDue() > now {
		k.taskDevices.ResumeAt(now)
	}
	if k.batchPending == now && k.taskBatch.NextDue() > now {
		k.taskBatch.ResumeAt(now)
	}
	k.syncDeferrals(now)
}

// syncLimit bounds lazy settlement at `now`: work strictly before the
// instant, and never at or past the owning task's own next firing.
func syncLimit(now units.Time, t *sim.Task) units.Time {
	limit := now - 1
	if nd := t.NextDue(); nd-1 < limit {
		limit = nd - 1
	}
	return limit
}

// fireDevices / fireBatch perform exactly one firing's worth of work at
// the given instant and advance the matching pending cursor. They are the single definition shared by the periodic task
// callbacks, the exact-replay fallback and the end-of-Run settlement,
// so the three paths cannot drift apart.
func (k *Kernel) fireDevices(now units.Time) {
	tick := k.Eng.Tick()
	for i := range k.devices {
		k.devices[i].dev.DeviceTick(now, tick)
	}
	if due := now + tick; due > k.devicesPending {
		k.devicesPending = due
	}
}

// fireBatch flows the taps, then bills the baseline, then applies the
// decay bite due at a whole second: the order in which the reference's
// adjacent tasks fire.
func (k *Kernel) fireBatch(now units.Time) {
	k.Graph.Flow(TapBatch)
	k.billBaseline(TapBatch)
	if due := now + TapBatch; due > k.batchPending {
		k.batchPending = due
	}
	k.biteAt(now)
}

// biteAt applies the decay bite due at t on a production kernel when t
// is a whole second; it runs right after t's batch, where the
// reference's decay task fires. Every standing deferral first replays
// the firings it skipped strictly before t, so the bite reads each
// reserve at the level per-firing execution leaves there. While no
// decayable reserve exists the bite is a no-op. Bites that settleBites
// takes in one pass do not come through here.
func (k *Kernel) biteAt(t units.Time) {
	if k.nextBite(t) != t {
		return
	}
	k.replayDeferrals(t - 1)
	k.Graph.Decay(units.Second)
}

// nextBite returns the first whole second at or after t, where
// settlement stops for a bite unless settleBites takes it with the
// window's later bites, or MaxTime on the reference (whose decay task
// bites), with decay disabled and while no bite can move energy.
func (k *Kernel) nextBite(t units.Time) units.Time {
	if !k.lazySettle || k.Graph.HalfLife() < 0 || k.Graph.DecayableCount() == 0 {
		return sim.MaxTime
	}
	return t + (units.Second-t%units.Second)%units.Second
}

// syncPendingBefore settles every pending batch and device tick strictly
// before now. When the depletion horizon proves no reserve can clamp
// anywhere in the window — counting worst-case tap outflow, baseline
// draw and peak device draw against every source, with all inflows
// ignored — the pieces commute and each settles in closed form;
// otherwise the window replays instant by instant in exact task order (a
// dying battery's partial-drain sequence must match a tick-by-tick run
// to the microjoule).
func (k *Kernel) syncPendingBefore(now units.Time) {
	devLimit := syncLimit(now, k.taskDevices)
	batchLimit := syncLimit(now, k.taskBatch)
	if k.devicesPending > devLimit && k.batchPending > batchLimit {
		return
	}
	k.settleWindow(devLimit, batchLimit)
}

// windowSafe reports whether the whole pending window is clamp-free
// under worst-case assumptions, making device billing, tap flows and
// baseline billing order-independent.
func (k *Kernel) windowSafe(devLimit, batchLimit units.Time) bool {
	start := units.Time(math.MaxInt64)
	end := units.Time(0)
	span := func(pending, limit units.Time) {
		if pending <= limit {
			if pending < start {
				start = pending
			}
			if limit > end {
				end = limit
			}
		}
	}
	span(k.devicesPending, devLimit)
	span(k.batchPending, batchLimit)
	if start > end {
		return true // nothing pending
	}
	batches := int64((end-start)/TapBatch) + 2
	extra := k.baselinePower() + k.devicesPeakDraw()
	return k.Graph.HorizonBatches(TapBatch, extra) >= batches
}

// settleDevices advances every settleable device through the ticks the
// parked device task skipped. Devices without closed-form settlement
// are provably quiescent across the whole window — leaving quiescence
// fires an activity hook, which resumes the device task and ends the
// deferral — so their skipped ticks were no-ops.
func (k *Kernel) settleDevices(devLimit units.Time) {
	if k.devicesPending > devLimit {
		return
	}
	tick := k.Eng.Tick()
	for i := range k.devices {
		if s := k.devices[i].settleable; s != nil {
			s.SettleTicks(k.devicesPending, devLimit, tick)
		}
	}
	k.devicesPending = devLimit + tick
}

// settleBatches advances the batch cursor through its pending
// boundaries as chunks: the graph picks the chunk size from its
// depletion horizon and bills the matching number of baseline batches
// after each chunk, preserving the flow-then-baseline order of every
// boundary. settleWindow ends a segment at each bite it does not settle
// in one pass (settleBites), so only the last boundary can be due one,
// which then follows it.
func (k *Kernel) settleBatches(batchLimit units.Time) {
	if k.batchPending > batchLimit {
		return
	}
	n := int64((batchLimit-k.batchPending)/TapBatch) + 1
	k.Graph.SettleFlows(TapBatch, n, k.baselinePower(), k.fn.billBaseline)
	k.batchPending += units.Time(n) * TapBatch
	k.biteAt(k.batchPending - TapBatch)
}

// replayWindow settles the pending window instant by instant in exact
// task order — device ticks, then the batch at each boundary — the
// fallback when a reserve could clamp inside the window and ordering
// therefore matters.
func (k *Kernel) replayWindow(devLimit, batchLimit units.Time) {
	for {
		t := units.Time(math.MaxInt64)
		if k.devicesPending <= devLimit {
			t = k.devicesPending
		}
		if k.batchPending <= batchLimit && k.batchPending < t {
			t = k.batchPending
		}
		if t == units.Time(math.MaxInt64) {
			return
		}
		if k.devicesPending == t && t <= devLimit {
			k.fireDevices(t)
		}
		if k.batchPending == t && t <= batchLimit {
			k.fireBatch(t)
		}
	}
}

// devicesSettleable reports whether every non-quiescent device can be
// settled in closed form right now (see SettleableDevice.SettleSafe).
func (k *Kernel) devicesSettleable() bool {
	for i := range k.devices {
		d := &k.devices[i]
		if d.quiescent != nil && d.quiescent.Quiescent() {
			continue
		}
		if d.settleable == nil || !d.settleable.SettleSafe() {
			return false
		}
	}
	return true
}

// devicesPeakDraw bounds the per-tick draw of every settleable device,
// the device share of the depletion-horizon budget.
func (k *Kernel) devicesPeakDraw() units.Power {
	var p units.Power
	for i := range k.devices {
		if s := k.devices[i].settleable; s != nil {
			p += s.PeakDraw()
		}
	}
	return p
}

// settle closes out lazily-deferred accounting at the end of a Run: any
// batches, device ticks and idle quanta the parked tasks would have
// performed up to the stop instant are applied in closed form, so
// callers reading Consumed or Utilization between Runs see exactly what
// a tick-by-tick engine would have produced. Work due exactly at the
// stop instant is performed in task order (devices, batch) if the owning
// task did not itself fire there.
func (k *Kernel) settle() {
	now := k.Eng.Now()
	if k.lazySettle {
		k.syncPendingBefore(now)
		if k.devicesPending == now && k.taskDevices.NextDue() > now {
			k.fireDevices(now)
		}
		if k.batchPending == now && k.taskBatch.NextDue() > now {
			k.fireBatch(now)
		}
		k.stopDeferrals(now)
	}
	if n := int64((now - k.lastSchedAt) / k.Eng.Tick()); n > 0 {
		k.Sched.AddIdleTicks(n)
		k.lastSchedAt = now
	}
}

// billBaseline consumes the idle (plus backlight) draw directly from the
// battery, where the power meter observes it.
func (k *Kernel) billBaseline(dt units.Time) {
	p := k.baselinePower()
	var e units.Energy
	e, k.baseCarry = p.OverRem(dt, k.baseCarry)
	if e > 0 {
		// The battery is the kernel's own reserve; if it is empty the
		// device is dead and the simulation keeps running at zero cost.
		_ = k.Graph.Battery().Consume(k.kpriv, e)
	}
}

// billBaselineBatches bills n baseline batches in one closed-form debit.
// The carry arithmetic telescopes, so one n-batch OverRem equals n
// sequential single-batch calls to the microjoule — unless the battery
// cannot cover the total (a dying device), in which case the batches are
// replayed one by one so the partial-drain sequence matches a
// tick-by-tick run exactly.
func (k *Kernel) billBaselineBatches(n int64) {
	if n <= 0 {
		return
	}
	if n == 1 {
		k.billBaseline(TapBatch)
		return
	}
	p := k.baselinePower()
	total := int64(p)*int64(TapBatch)*n + k.baseCarry
	e := units.Energy(total / 1000)
	if e <= 0 || k.Graph.Battery().CanConsume(k.kpriv, e) {
		k.baseCarry = total % 1000
		if e > 0 {
			_ = k.Graph.Battery().Consume(k.kpriv, e)
		}
		return
	}
	for i := int64(0); i < n; i++ {
		k.billBaseline(TapBatch)
	}
}

func (k *Kernel) baselinePower() units.Power {
	p := k.Profile.Idle
	if k.backlight {
		p += k.Profile.Backlight
	}
	return p
}

// SetBacklight toggles the backlight contribution to baseline draw. Any
// lazily-deferred batches are settled at the old power first.
func (k *Kernel) SetBacklight(on bool) {
	k.syncAt(k.Eng.Now())
	k.backlight = on
	// The baseline power change moves the depletion horizon a deferral's
	// prediction was capped by.
	k.invalidateDeferrals()
}

// KernelPriv returns the kernel's privilege set (owns the system
// category). Tests and trusted daemons (netd, the task manager) receive
// derived privileges instead.
func (k *Kernel) KernelPriv() label.Priv { return k.kpriv }

// NewCategory allocates a fresh privilege category (HiStar's category
// allocation syscall).
func (k *Kernel) NewCategory() label.Category {
	c := k.nextCat
	k.nextCat++
	return c
}

// AddDevice registers a peripheral for per-tick callbacks, asserting
// its optional capabilities (quiescence, closed-form settlement) once so
// the per-instant checks do no dynamic type tests. Devices that can
// leave quiescence asynchronously (the radio, on a Send scheduled from
// an event) are subscribed to the kernel's resume hook.
func (k *Kernel) AddDevice(d Device) {
	e := deviceEntry{dev: d}
	e.quiescent, _ = d.(QuiescentDevice)
	e.settleable, _ = d.(SettleableDevice)
	k.devices = append(k.devices, e)
	if n, ok := d.(deviceActivityNotifier); ok {
		n.SetActivityHook(k.fn.resume)
	}
	k.taskDevices.Resume()
}

// TapsSettledThrough returns the last batch boundary whose flows have
// been applied. At a deferral's replay point every boundary strictly
// before the replay limit is settled.
func (k *Kernel) TapsSettledThrough() units.Time { return k.batchPending - TapBatch }

// SweepHorizonBatches bounds how many tap batches ahead a deferral's
// owner may trust constant-rate extrapolation: within the horizon no reserve
// can clamp (counting worst-case tap outflow, baseline draw and peak
// device draw against every source, all inflows ignored), so const-tap
// carries telescope exactly and a skipped window decomposes per
// boundary. Predictions must not defer past it.
func (k *Kernel) SweepHorizonBatches() int64 {
	return k.Graph.HorizonBatches(TapBatch, k.baselinePower()+k.devicesPeakDraw())
}

// Consumed returns total energy consumed across the system — what the
// bench supply has delivered. Experiments attach power.Meter to this.
func (k *Kernel) Consumed() units.Energy { return k.Graph.Consumed() }

// Battery returns the root reserve.
func (k *Kernel) Battery() *core.Reserve { return k.Graph.Battery() }

// BatteryExhaustedFor reports whether the battery can no longer sustain
// the baseline idle draw for d more simulated time. The strict one-batch
// test above can fail to trip on a drained device: clamped taps, label
// decay and reserve teardown cycle a few millijoules back and forth, so
// the level floats a batch or two above the quantum indefinitely while
// nothing real can be paid for — a zombie that still executes its full
// instant load. Watchdogs that sample at a coarser resolution should
// declare death at their own granularity: a device that cannot fund one
// watch period of idle floor has no measurable life left in it.
func (k *Kernel) BatteryExhaustedFor(d units.Time) bool {
	if d < TapBatch {
		d = TapBatch
	}
	return !k.Graph.Battery().CanConsume(k.kpriv, k.baselinePower().Over(d))
}

// WatchHorizon returns the latest instant through which the battery
// provably cannot reach exhaustion, for adaptive battery watchdogs (the
// fleet's per-second battery watch defers itself to this horizon
// instead of polling 86 400 times per simulated day). It returns 0 —
// "do not defer" — unless no thread is runnable and every peripheral is
// quiescent. Then the battery's only drains are the baseline draw and
// the active taps it sources, which Graph.DrainBound bounds at the
// current level (every inflow — decay leaks, taps into the battery,
// charge — only delays exhaustion), and every way the device can leave
// the state begins at an executed instant, which only occurs where an
// event or another task is due. So the horizon is the earlier of (a)
// the instant that drain could approach the exhaustion threshold, with
// a full watch period plus one batch of slack so the watchdog's own
// grid re-check lands strictly before exhaustion, and (b) the engine's
// earliest other pending work (`except` is the watchdog itself).
// Deferring to the horizon detects battery death at exactly the same
// grid instant dense polling would, which the fleet's watch-equivalence
// test asserts against the reference, whose watch never defers.
func (k *Kernel) WatchHorizon(except *sim.Task) units.Time {
	if !k.lazySettle {
		return 0
	}
	if k.Sched.RunnableCount() > 0 || !k.devicesQuiescent() {
		return 0
	}
	bat := k.Graph.Battery()
	lvl, err := bat.Level(k.kpriv)
	if err != nil {
		return 0
	}
	p := k.baselinePower() + k.Graph.DrainBound(bat)
	thresh := p.Over(TapBatch)
	// Slack: the exhaustion threshold itself, one extra batch for carry
	// rounding, and one watch period for the deferral's grid ceiling.
	margin := lvl - 2*thresh
	if margin <= 0 || p <= 0 {
		return 0
	}
	safe := units.Time(int64(margin) * 1000 / int64(p))
	period := units.Time(units.Second)
	if except != nil {
		period = except.Period
	}
	if safe <= period+TapBatch {
		return 0
	}
	horizon := k.Eng.Now() + safe - period - TapBatch
	if w := k.Eng.EarliestWork(except); w < horizon {
		horizon = w
	}
	if horizon <= k.Eng.Now() {
		return 0
	}
	return horizon
}

// Now returns the current simulated time.
func (k *Kernel) Now() units.Time { return k.Eng.Now() }

// Run advances the simulation by d, then settles any accounting the
// quiescence machinery deferred past the stop instant.
func (k *Kernel) Run(d units.Time) {
	k.Eng.Run(d)
	k.settle()
}

// NewMeter attaches a power meter to the kernel's consumption counter,
// reproducing the Agilent E3644A setup.
func (k *Kernel) NewMeter(name string) *power.Meter {
	return power.NewMeter(k.Eng, name, k.Consumed)
}

// CreateReserve is the reserve_create syscall (Fig. 5): a new, empty
// reserve in the given container.
func (k *Kernel) CreateReserve(parent *kobj.Container, name string, lbl label.Label) *core.Reserve {
	return k.Graph.NewReserve(parent, name, lbl, core.ReserveOpts{})
}

// CreateReserveOpts creates a reserve with explicit options (debt,
// decay exemption) for trusted daemons.
func (k *Kernel) CreateReserveOpts(parent *kobj.Container, name string, lbl label.Label, opts core.ReserveOpts) *core.Reserve {
	return k.Graph.NewReserve(parent, name, lbl, opts)
}

// CreateTap is the tap_create syscall (Fig. 5).
func (k *Kernel) CreateTap(parent *kobj.Container, name string, p label.Priv, src, sink *core.Reserve, lbl label.Label) (*core.Tap, error) {
	return k.Graph.NewTap(parent, name, p, src, sink, lbl)
}

// Wrap implements the energywrap primitive (§5.1): create a reserve fed
// from `from` by a constant tap at `rate`, both inside parent. The
// returned reserve is intended as a child thread's active reserve and is
// public (the child must be able to consume from it); tapLbl protects
// the tap so only the wrapper can change the rate. The caller needs use
// privileges on `from`.
func (k *Kernel) Wrap(parent *kobj.Container, name string, p label.Priv, from *core.Reserve, rate units.Power, tapLbl label.Label) (*core.Reserve, *core.Tap, error) {
	res := k.Graph.NewReserve(parent, name+"-reserve", label.Public(), core.ReserveOpts{})
	tap, err := k.Graph.NewTap(parent, name+"-tap", p, from, res, tapLbl)
	if err != nil {
		return nil, nil, fmt.Errorf("kernel: wrap %q: %w", name, err)
	}
	if err := tap.SetRate(p, rate); err != nil {
		return nil, nil, fmt.Errorf("kernel: wrap %q: %w", name, err)
	}
	return res, tap, nil
}

// Spawn creates a process-like unit: a container holding a thread that
// draws from the given reserves. It mirrors fork + set_active_reserve +
// exec in Fig. 5.
func (k *Kernel) Spawn(parent *kobj.Container, name string, p label.Priv, runner sched.Runner, reserves ...*core.Reserve) (*kobj.Container, *sched.Thread) {
	c := kobj.NewContainer(k.Table, parent, label.Public())
	th := k.Sched.NewThread(c, name, label.Public(), p, runner, reserves...)
	return c, th
}
