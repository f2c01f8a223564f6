// Package kernel assembles the Cinder simulation: it owns the virtual
// clock, the kernel object table, the resource-consumption graph, the
// energy-aware scheduler, the device power model, and the gate IPC
// mechanism whose billing semantics are the paper's §5.5.1 ("the caller
// of a system-wide service, like netd, is billed for resource
// consumption it causes, even while executing in the other address
// space").
//
// A Kernel registers three periodic activities on its engine, mirroring
// the paper's implementation notes:
//
//   - the scheduler runs every tick (1 ms quantum);
//   - taps flow in batch every TapBatch (10 ms), "to minimize scheduling
//     and context-switch overheads" (§3.3);
//   - the global half-life decay applies every second (§5.2.2).
//
// Baseline device power (the Dream's 699 mW idle, plus 555 mW when the
// backlight is on) is consumed directly from the battery each batch, so
// the attached power meter reproduces the Agilent traces.
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

// DefaultTapBatch is the tap flow batching interval.
const DefaultTapBatch = 10 * units.Millisecond

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
	// TapBatch overrides DefaultTapBatch.
	TapBatch units.Time
	// Billing selects gate billing semantics; default BillCaller.
	Billing BillingMode
	// Reference selects the reference configuration the differential
	// tests check production against: the fixed-tick engine with every
	// periodic task — scheduler, tap flows, baseline billing, devices,
	// netd sweeps, charger quanta — executed at its period, and nothing
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
	// parks), and skipped quanta are settled as idle ticks. The
	// tap-flow, baseline and device tasks park outright whenever
	// possible and everything they skipped — flow batches, baseline
	// batches, device ticks — settles lazily via syncAt before any
	// callback at an executed instant, in closed form inside the
	// depletion horizon and by exact replay outside it. Activity hooks
	// (thread wake/creation, tap activation, radio wake-up) resume the
	// tasks instantly, so the callback sequence — and therefore every
	// experiment Result — is byte-identical to a tick-by-tick run.
	taskDevices  *sim.Task
	taskSched    *sim.Task
	taskTaps     *sim.Task
	taskBaseline *sim.Task
	taskDecay    *sim.Task
	tapBatch     units.Time
	// baselinePending is the earliest baseline batch boundary not yet
	// billed; lastSchedAt is the instant of the last scheduler quantum.
	baselinePending units.Time
	lastSchedAt     units.Time
	// Closed-form settlement state: lazySettle is set on production
	// kernels, whose engine is next-event, and clear on the reference.
	// The flow and device tasks park outright and the work they skipped
	// — tap batches, baseline batches, device ticks — settles lazily, in
	// closed form where the depletion horizon allows and by exact replay
	// where it does not, before any callback at an executed instant.
	// tapsPending / devicesPending are the earliest tap batch boundary
	// not yet flowed and the earliest tick not yet device-ticked.
	lazySettle     bool
	tapsPending    units.Time
	devicesPending units.Time
	// fn holds the task bodies and hooks bound once per Kernel (bind),
	// so a recycled Reset re-registers them without allocating a
	// closure, and settleBatches hands SettleFlows its interleave
	// callback without allocating one per settlement window.
	fn struct {
		devices, sched, taps, baseline, decay func(*sim.Engine)
		decayActivity, resume                 func()
		advance                               func(units.Time)
		billBaseline                          func(int64)
	}
	// settlers are the registered SweepSettlers (netd, the battery
	// charger), synchronized at every executed instant and invalidated
	// from the activity hooks.
	settlers []SweepSettler
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

// SweepSettler is implemented by subsystems that own a periodic task
// whose firings can be settled in closed form between executed instants
// (netd's 100 ms pool sweep). The subsystem parks or defers its own task
// when it can predict the next firing that matters; the kernel then keeps
// it exact by calling:
//
//   - SyncSweeps from the advance hook at every executed instant, after
//     tap/baseline/device settlement has caught up strictly before the
//     instant — the settler replays the firings its parked task skipped
//     and, if a firing is due exactly now, re-arms the task so it fires
//     in its registration slot (after the kernel's own boundary tasks);
//   - SettleSweeps at the end of a Run, after the kernel's at-now
//     boundary work, where no task firing can cover the stop instant;
//   - InvalidateSweeps whenever an activity hook fires (thread woken,
//     tap activated/changed/released, decayable created, radio woken):
//     anything that could perturb the prediction returns the task to its
//     periodic grid until the settler re-establishes one.
type SweepSettler interface {
	SyncSweeps(now units.Time)
	SettleSweeps(now units.Time)
	InvalidateSweeps()
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
	k.fn.taps = k.tapsTask
	k.fn.baseline = k.baselineTask
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
	if cfg.TapBatch == 0 {
		cfg.TapBatch = DefaultTapBatch
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
	k.Root = kobj.NewContainer(k.Table, nil, "root", label.Public())
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
	k.baselinePending = 0
	k.lastSchedAt = 0
	k.tapsPending = 0
	k.devicesPending = 0
	clear(k.settlers)
	k.settlers = k.settlers[:0]
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
	k.tapBatch = cfg.TapBatch
	k.taskDevices = eng.Every("kernel:devices", tick, k.fn.devices)
	k.taskSched = eng.Every("kernel:sched", tick, k.fn.sched)
	k.taskTaps = eng.Every("kernel:taps", cfg.TapBatch, k.fn.taps)
	k.taskBaseline = eng.Every("kernel:baseline", cfg.TapBatch, k.fn.baseline)
	k.taskDecay = nil
	if k.Graph.HalfLife() >= 0 {
		k.taskDecay = eng.Every("kernel:decay", units.Second, k.fn.decay)
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

// tapsTask is the kernel:taps task body.
func (k *Kernel) tapsTask(e *sim.Engine) {
	k.fireTaps(e.Now())
	if k.lazySettle {
		k.taskTaps.Park()
	}
}

// baselineTask is the kernel:baseline task body.
func (k *Kernel) baselineTask(e *sim.Engine) {
	k.fireBaseline(e.Now())
	if k.lazySettle {
		k.taskBaseline.Park()
	}
}

// decayTask is the kernel:decay task body.
func (k *Kernel) decayTask(*sim.Engine) {
	k.Graph.Decay(units.Second)
	// While no decayable reserve exists, every firing is a no-op by
	// construction; park until one is created. This is what lets a
	// quiescent device skip whole simulated hours — the 1 s decay
	// cadence is otherwise the densest permanent task.
	if k.Graph.DecayableCount() == 0 {
		k.taskDecay.Park()
	}
}

// decayActivity is the graph's decay-activity hook: a new decayable
// reserve resumes the decay task.
func (k *Kernel) decayActivity() {
	k.taskDecay.Resume()
	// A new decayable reserve introduces 1 s decay bites that a sweep
	// settler's prediction did not model.
	k.invalidateSettlers()
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
// diagnostic and per-reserve ConsumeFailures stop counting attempts
// that were never made; neither feeds a Result. The bound is sound
// because every ignored effect — clamping, decay leakage, outflow taps,
// other threads' billing — only lowers a reserve's true level below the
// unclamped-inflow projection, and every credit outside the flow
// machinery (transfers, reserve teardown refunds, draw-list changes,
// thread wakes) fires an activity hook that resumes the task.
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
			num += int64(tp.Rate()) * int64(k.tapBatch)
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
		// The q-th future batch boundary (multiples of tapBatch at or
		// after now; the boundary at now itself has not credited when the
		// scheduler observes lvl) must have settled strictly before the
		// first quantum that could pay.
		b0 := now + (k.tapBatch-now%k.tapBatch)%k.tapBatch
		if e := b0 + units.Time(q-1)*k.tapBatch + 1; e < earliest {
			earliest = e
		}
		return true
	})
	return earliest, sound
}

// resumeKernelTasks revives every deferred kernel task; it runs from the
// activity hooks (thread created or woken, tap activated, radio woken)
// and is a near-no-op when nothing is deferred. The flow and baseline
// tasks stay parked — their boundaries settle lazily and the
// boundary-at-now dance in syncAt hands them back their registration
// slot — but the device task is revived so it can re-evaluate whether
// its settlement preconditions still hold (a freshly activated tap may
// now touch a device's private account).
func (k *Kernel) resumeKernelTasks() {
	k.taskSched.Resume()
	k.taskDevices.Resume()
	// Every activity this hook observes — a thread able to run, a tap
	// activated, changed or released, the radio waking — can perturb a
	// sweep settler's closed-form prediction; drop it and let the settler
	// re-establish one from post-activity state.
	k.invalidateSettlers()
}

// invalidateSettlers drops every registered sweep settler's prediction.
func (k *Kernel) invalidateSettlers() {
	for _, s := range k.settlers {
		s.InvalidateSweeps()
	}
}

// syncAtAdvance is the advance-hook flavour of syncAt: it first tries
// the fast boundary path, which handles the common quiescent instant —
// no event due, scheduler parked, devices quiescent or settleable — in
// one settlement call instead of resuming, firing and re-parking the
// three boundary tasks. Direct syncAt callers (SetBacklight, about to
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
//     tap/baseline slots and may change rates; the kernel's tasks are
//     registered first, so nothing else precedes them);
//   - every device is quiescent or settleable, so the device boundary
//     tick telescopes like the rest of the span;
//   - the boundary tasks themselves are parked past now (always true
//     once each has fired once);
//   - this is not a RunUntil entry instant, where rewindDue is about to
//     re-arm the parked tasks for the Run-boundary re-step — settling
//     through now as well would perform the boundary work twice.
func (k *Kernel) fastBoundary(now units.Time) bool {
	if k.taskDevices.NextDue() <= now || k.taskTaps.NextDue() <= now ||
		k.taskBaseline.NextDue() <= now || k.taskSched.NextDue() <= now {
		return false
	}
	eng := k.Eng
	if eng.EntryInstant() || eng.PendingEventAt(now) {
		return false
	}
	if !k.devicesQuiescent() && !k.devicesSettleable() {
		return false
	}
	if k.devicesPending > now && k.tapsPending > now && k.baselinePending > now {
		k.syncSettlers(now)
		return true // nothing due through now
	}
	k.settleWindow(now, now, now)
	k.syncSettlers(now)
	return true
}

// syncSettlers lets every sweep settler replay the firings its parked
// task skipped strictly before now (tap batches through those boundaries
// are settled by the time this runs) and re-arm the task if a firing is
// due exactly now.
func (k *Kernel) syncSettlers(now units.Time) {
	for _, s := range k.settlers {
		s.SyncSweeps(now)
	}
}

// settleWindow advances the pending cursors through their limits by the
// cheapest exact strategy: with every device quiescent the device ticks
// are no-ops, so no ordering proof is needed and SettleFlows /
// billBaselineBatches self-guard their own clamping exactly; otherwise
// the depletion horizon must clear the whole window before device
// billing may be reordered against flows, and a window it cannot clear
// replays instant by instant.
func (k *Kernel) settleWindow(devLimit, flowLimit, baseLimit units.Time) {
	if k.devicesQuiescent() {
		k.settleDevices(devLimit)
		k.settleBatches(flowLimit, baseLimit)
		return
	}
	if !k.windowSafe(devLimit, flowLimit, baseLimit) {
		k.replayWindow(devLimit, flowLimit, baseLimit)
		return
	}
	k.settleDevices(devLimit)
	k.settleBatches(flowLimit, baseLimit)
}

// syncAt is the engine's advance hook: it runs once per executed
// instant, before any callback at that instant, and settles every tap
// batch, baseline batch and device tick that came due while the
// corresponding tasks were parked — so meters, experiments, the
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
	if k.tapsPending == now && k.taskTaps.NextDue() > now {
		k.taskTaps.ResumeAt(now)
	}
	if k.baselinePending == now && k.taskBaseline.NextDue() > now {
		k.taskBaseline.ResumeAt(now)
	}
	k.syncSettlers(now)
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

// fireDevices / fireTaps / fireBaseline perform exactly one firing's
// worth of work at the given instant and advance the matching pending
// cursor. They are the single definition shared by the periodic task
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

func (k *Kernel) fireTaps(now units.Time) {
	k.Graph.Flow(k.tapBatch)
	if due := now + k.tapBatch; due > k.tapsPending {
		k.tapsPending = due
	}
}

func (k *Kernel) fireBaseline(now units.Time) {
	k.billBaseline(k.tapBatch)
	if due := now + k.tapBatch; due > k.baselinePending {
		k.baselinePending = due
	}
}

// syncPendingBefore settles every pending tap batch, baseline batch and
// device tick strictly before now. When the depletion horizon proves no
// reserve can clamp anywhere in the window — counting worst-case tap
// outflow, baseline draw and peak device draw against every source, with
// all inflows ignored — the pieces commute and each settles in closed
// form; otherwise the window replays instant by instant in exact task
// order (a dying battery's partial-drain sequence must match a
// tick-by-tick run to the microjoule).
func (k *Kernel) syncPendingBefore(now units.Time) {
	devLimit := syncLimit(now, k.taskDevices)
	flowLimit := syncLimit(now, k.taskTaps)
	baseLimit := syncLimit(now, k.taskBaseline)
	if k.devicesPending > devLimit && k.tapsPending > flowLimit && k.baselinePending > baseLimit {
		return
	}
	k.settleWindow(devLimit, flowLimit, baseLimit)
}

// windowSafe reports whether the whole pending window is clamp-free
// under worst-case assumptions, making device billing, tap flows and
// baseline billing order-independent.
func (k *Kernel) windowSafe(devLimit, flowLimit, baseLimit units.Time) bool {
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
	span(k.tapsPending, flowLimit)
	span(k.baselinePending, baseLimit)
	if start > end {
		return true // nothing pending
	}
	batches := int64((end-start)/k.tapBatch) + 2
	extra := k.baselinePower() + k.devicesPeakDraw()
	return k.Graph.HorizonBatches(k.tapBatch, extra) >= batches
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

// settleBatches advances the tap-flow and baseline cursors through their
// pending boundaries. The two grids coincide (same period and phase), so
// aligned boundaries settle as interleaved chunks — the graph picks the
// chunk size from its depletion horizon and bills the matching number of
// baseline batches after each chunk, preserving the flow-then-baseline
// order of every boundary.
func (k *Kernel) settleBatches(flowLimit, baseLimit units.Time) {
	for k.tapsPending <= flowLimit || k.baselinePending <= baseLimit {
		ft, bt := k.tapsPending, k.baselinePending
		flowDue, baseDue := ft <= flowLimit, bt <= baseLimit
		switch {
		case flowDue && baseDue && ft == bt:
			n := int64((flowLimit-ft)/k.tapBatch) + 1
			if nb := int64((baseLimit-bt)/k.tapBatch) + 1; nb < n {
				n = nb
			}
			k.Graph.SettleFlows(k.tapBatch, n, k.baselinePower(), k.fn.billBaseline)
			d := units.Time(n) * k.tapBatch
			k.tapsPending += d
			k.baselinePending += d
		case flowDue && (!baseDue || ft < bt):
			k.fireTaps(ft)
		default:
			k.fireBaseline(bt)
		}
	}
}

// replayWindow settles the pending window instant by instant in exact
// task order — device ticks, then the tap batch, then the baseline batch
// at each boundary — the fallback when a reserve could clamp inside the
// window and ordering therefore matters.
func (k *Kernel) replayWindow(devLimit, flowLimit, baseLimit units.Time) {
	for {
		t := units.Time(math.MaxInt64)
		if k.devicesPending <= devLimit && k.devicesPending < t {
			t = k.devicesPending
		}
		if k.tapsPending <= flowLimit && k.tapsPending < t {
			t = k.tapsPending
		}
		if k.baselinePending <= baseLimit && k.baselinePending < t {
			t = k.baselinePending
		}
		if t == units.Time(math.MaxInt64) {
			return
		}
		if k.devicesPending == t && t <= devLimit {
			k.fireDevices(t)
		}
		if k.tapsPending == t && t <= flowLimit {
			k.fireTaps(t)
		}
		if k.baselinePending == t && t <= baseLimit {
			k.fireBaseline(t)
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
// tap batches, baseline batches, device ticks and idle quanta the parked
// tasks would have performed up to the stop instant are applied in
// closed form, so callers reading Consumed or Utilization between Runs
// see exactly what a tick-by-tick engine would have produced. Work due
// exactly at the stop instant is performed in task order (devices, taps,
// baseline) if the owning task did not itself fire there.
func (k *Kernel) settle() {
	now := k.Eng.Now()
	if k.lazySettle {
		k.syncPendingBefore(now)
		if k.devicesPending == now && k.taskDevices.NextDue() > now {
			k.fireDevices(now)
		}
		if k.tapsPending == now && k.taskTaps.NextDue() > now {
			k.fireTaps(now)
		}
		if k.baselinePending == now && k.taskBaseline.NextDue() > now {
			k.fireBaseline(now)
		}
		for _, s := range k.settlers {
			s.SettleSweeps(now)
		}
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
		k.billBaseline(k.tapBatch)
		return
	}
	p := k.baselinePower()
	total := int64(p)*int64(k.tapBatch)*n + k.baseCarry
	e := units.Energy(total / 1000)
	if e <= 0 || k.Graph.Battery().CanConsume(k.kpriv, e) {
		k.baseCarry = total % 1000
		if e > 0 {
			_ = k.Graph.Battery().Consume(k.kpriv, e)
		}
		return
	}
	for i := int64(0); i < n; i++ {
		k.billBaseline(k.tapBatch)
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
	// The baseline power change moves the depletion horizon a sweep
	// settler's prediction was capped by.
	k.invalidateSettlers()
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

// AddSweepSettler registers a subsystem's closed-form sweep settlement
// with the kernel's per-instant synchronization (see SweepSettler).
func (k *Kernel) AddSweepSettler(s SweepSettler) {
	k.settlers = append(k.settlers, s)
}

// LazySettle reports whether this kernel runs closed-form settlement —
// true on every production (next-event) kernel, false on the reference
// configuration. It is the regime in which a SweepSettler's parked task
// has its skipped firings replayed lazily; sweep settlers refuse to
// predict outside it, since the reference executes every firing.
func (k *Kernel) LazySettle() bool { return k.lazySettle }

// TapsSettledThrough returns the last tap-batch boundary whose flows
// have been applied. At a sweep settler's replay point (inside
// SyncSweeps at an executed instant) every boundary strictly before now
// is settled; the accessor lets the settler assert that invariant.
func (k *Kernel) TapsSettledThrough() units.Time { return k.tapsPending - k.tapBatch }

// SweepHorizonBatches bounds how many tap batches ahead a sweep settler
// may trust constant-rate extrapolation: within the horizon no reserve
// can clamp (counting worst-case tap outflow, baseline draw and peak
// device draw against every source, all inflows ignored), so const-tap
// carries telescope exactly and a skipped window decomposes per
// boundary. Predictions must not defer past it.
func (k *Kernel) SweepHorizonBatches() int64 {
	return k.Graph.HorizonBatches(k.tapBatch, k.baselinePower()+k.devicesPeakDraw())
}

// TapBatch returns the tap flow batching interval.
func (k *Kernel) TapBatch() units.Time { return k.tapBatch }

// Consumed returns total energy consumed across the system — what the
// bench supply has delivered. Experiments attach power.Meter to this.
func (k *Kernel) Consumed() units.Energy { return k.Graph.Consumed() }

// Battery returns the root reserve.
func (k *Kernel) Battery() *core.Reserve { return k.Graph.Battery() }

// BatteryExhausted reports whether the battery can no longer cover even
// one batch of baseline idle draw — the practical definition of a dead
// device (the residual level is below the billing quantum, so nothing
// can ever be paid for again).
func (k *Kernel) BatteryExhausted() bool {
	return !k.Graph.Battery().CanConsume(k.kpriv, k.baselinePower().Over(k.tapBatch))
}

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
	if d < k.tapBatch {
		d = k.tapBatch
	}
	return !k.Graph.Battery().CanConsume(k.kpriv, k.baselinePower().Over(d))
}

// WatchHorizon returns the latest instant through which the battery
// provably cannot reach exhaustion, for adaptive battery watchdogs (the
// fleet's per-second battery watch defers itself to this horizon
// instead of polling 86 400 times per simulated day). It returns 0 —
// "do not defer" — unless the device is fully quiescent right now: no
// active tap, no runnable thread, every peripheral quiescent. In that
// state the baseline draw is the only drain on the battery, and every
// way the device can leave the state begins at an executed instant,
// which only occurs where an event or another task is due — so the
// horizon is the earlier of (a) the instant baseline draw alone could
// approach the exhaustion threshold, with a full watch period plus one
// batch of slack so the watchdog's own grid re-check lands strictly
// before exhaustion, and (b) the engine's earliest other pending work
// (`except` is the watchdog itself). Deferring to the horizon detects
// battery death at exactly the same grid instant dense polling would,
// which the fleet's watch-equivalence test asserts against the
// reference, whose watch never defers.
func (k *Kernel) WatchHorizon(except *sim.Task) units.Time {
	if !k.lazySettle {
		return 0
	}
	if k.Graph.ActiveTapCount() > 0 || k.Sched.RunnableCount() > 0 || !k.devicesQuiescent() {
		return 0
	}
	lvl, err := k.Graph.Battery().Level(k.kpriv)
	if err != nil {
		return 0
	}
	p := k.baselinePower()
	thresh := p.Over(k.tapBatch)
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
	if safe <= period+k.tapBatch {
		return 0
	}
	horizon := k.Eng.Now() + safe - period - k.tapBatch
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
	c := kobj.NewContainer(k.Table, parent, name, label.Public())
	th := k.Sched.NewThread(c, name, label.Public(), p, runner, reserves...)
	return c, th
}
