// Package sim provides the deterministic discrete-time engine underneath
// the Cinder simulation: a virtual clock, a time-ordered event queue,
// periodic task scheduling, and a seeded random source.
//
// The engine is a next-event simulator on a fixed 1 ms grid. Every
// instant at which work is due — a one-shot event fires, or a periodic
// task's per-task nextDue arrives — is executed exactly as a fixed-tick
// engine would execute it (due events first, then due tasks in
// registration order), but the clock jumps directly from one due instant
// to the next instead of visiting every tick in between. ModeFixedTick
// still walks every tick: it is the engine of the reference
// configuration (kernel.Config.Reference), and the differential tests
// assert the two modes byte-equivalent.
//
// Determinism is a design requirement — every experiment in the paper's
// evaluation is reproduced as an exact, repeatable run — so the engine
// never consults wall-clock time and all randomness flows from an
// explicit seed.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/units"
)

// DefaultTick is the simulation quantum. One millisecond is fine enough
// to resolve the paper's shortest interval of interest (the 200 ms power
// meter sampling) while keeping 20-minute experiments cheap.
const DefaultTick = units.Millisecond

// MaxTime is the parked sentinel Task.NextDue returns for tasks
// suspended indefinitely by Park.
const MaxTime = units.Time(math.MaxInt64)

// Mode selects how the engine advances time.
type Mode uint8

const (
	// ModeNextEvent (the zero value) jumps the clock directly between due
	// instants.
	ModeNextEvent Mode = iota
	// ModeFixedTick visits every tick, reproducing the original
	// fixed-quantum engine. It is the engine of the reference
	// configuration (kernel.Config.Reference) the differential tests
	// check production against.
	ModeFixedTick
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeNextEvent:
		return "next-event"
	case ModeFixedTick:
		return "fixed-tick"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// event is a one-shot callback scheduled for a particular simulated time.
type event struct {
	at  units.Time
	fn  func(e *Engine)
	seq uint64 // tie-break: FIFO among events at the same time
}

// Task is a callback invoked on a fixed period. Tasks registered earlier
// run earlier within an instant.
type Task struct {
	// Name identifies the task in String output and panics.
	Name string
	// Period is the interval between invocations; must be a positive
	// multiple of the engine tick.
	Period units.Time
	// Phase offsets the first invocation. A task with period p and
	// phase f runs at f, f+p, f+2p, ...
	Phase units.Time
	// Fn is invoked with the engine at each firing.
	Fn func(e *Engine)

	eng     *Engine
	nextDue units.Time
	// deferred marks a task whose nextDue has been pushed past its
	// natural grid by DeferUntil/Park (the kernel's quiescence
	// machinery). Resume only acts on deferred tasks, so it can never
	// pull an on-schedule task back for a spurious same-instant refire.
	deferred bool
	stopped  bool
}

// Stop permanently disables the task and removes it from the engine's
// task list at the end of the current instant (stopped tasks are not
// scanned for the remainder of the run). Safe to call from within the
// task itself.
func (t *Task) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.eng != nil {
		t.eng.tasksDirty = true
	}
}

// NextDue returns the instant of the task's next firing (MaxTime when
// parked).
func (t *Task) NextDue() units.Time { return t.nextDue }

// DeferUntil postpones the task's next firing to the earliest instant on
// the task's period grid at or after `until`. It never moves a firing
// earlier. The kernel uses this to skip guaranteed-idle quanta; the
// caller is responsible for any catch-up accounting the skipped firings
// would have performed.
func (t *Task) DeferUntil(until units.Time) {
	if t.stopped {
		return
	}
	due := firstDueAt(t.Period, t.Phase, until)
	if due > t.nextDue {
		t.nextDue = due
		t.deferred = true
	}
}

// Park suspends the task indefinitely; only Resume, ResumeAt, or a
// Run-boundary re-step revives it.
func (t *Task) Park() {
	if t.stopped {
		return
	}
	t.nextDue = MaxTime
	t.deferred = true
}

// Resume undoes a DeferUntil/Park: the task next fires at the earliest
// on-grid instant at or after the engine's current time (which may be
// the current instant, if Resume is called before the task loop runs).
// Resuming a task that was never deferred is a no-op.
func (t *Task) Resume() { t.ResumeAt(0) }

// ResumeAt is Resume with a lower bound: the task next fires at the
// earliest on-grid instant ≥ max(now, at). The kernel resumes its
// baseline-billing task this way so boundaries already billed by the
// closed-form catch-up are not billed twice.
func (t *Task) ResumeAt(at units.Time) {
	if t.stopped || !t.deferred {
		return
	}
	if t.eng != nil && t.eng.now > at {
		at = t.eng.now
	}
	t.nextDue = firstDueAt(t.Period, t.Phase, at)
	t.deferred = false
}

// firstDueAt returns the smallest instant t ≥ from with t ≥ phase and
// (t−phase) a multiple of period.
func firstDueAt(period, phase, from units.Time) units.Time {
	if from <= phase {
		return phase
	}
	r := (from - phase) % period
	if r == 0 {
		return from
	}
	return from + period - r
}

// countingSource wraps the engine's random source, seeds it lazily and
// counts draws. Seed only records the seed: the math/rand source (607
// words of state) is created or re-seeded on the first draw after it,
// so a device that never draws — an idle phone — never pays for
// seeding. Every draw delegates to that source, so the random stream is
// bit-identical to an unwrapped rand.NewSource(seed). The draw count
// makes the RNG state snapshotable: a load replays the recorded number
// of draws through the same lazy path instead of serializing
// math/rand's opaque internals, so a zero-draw snapshot never seeds.
// Both Int63 and Uint64 advance the underlying generator by exactly one
// step, so a replay of n Uint64 calls reproduces any mix of n draws.
type countingSource struct {
	src    rand.Source64 // nil until the engine's first draw ever
	seed   int64
	seeded bool // src holds the stream of seed
	draws  uint64
}

func (s *countingSource) Int63() int64 {
	if !s.seeded {
		s.seedNow()
	}
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	if !s.seeded {
		s.seedNow()
	}
	s.draws++
	return s.src.Uint64()
}

// Seed restarts the stream at seed; the source itself is seeded on the
// next draw.
func (s *countingSource) Seed(seed int64) {
	s.seed = seed
	s.seeded = false
	s.draws = 0
}

// seedNow seeds the underlying source with the recorded seed, creating
// it on the first use. rand.NewSource's concrete type has implemented
// Source64 since Go 1.8; the assertion is checked so a toolchain change
// fails loudly instead of silently changing every experiment's random
// stream.
func (s *countingSource) seedNow() {
	if s.src == nil {
		s64, ok := rand.NewSource(s.seed).(rand.Source64)
		if !ok {
			panic("sim: rand.NewSource does not implement Source64")
		}
		s.src = s64
	} else {
		s.src.Seed(s.seed)
	}
	s.seeded = true
}

// Engine drives simulated time forward.
type Engine struct {
	now    units.Time
	tick   units.Time
	mode   Mode
	events eventHeap
	tasks  []*Task
	rng    *rand.Rand
	src    *countingSource
	seq    uint64
	// built is seq when MarkBuilt ran: an event with a seq at or past it
	// was scheduled mid-run, and a restore, which rebuilds the owner,
	// cannot reproduce it.
	built uint64
	// steps counts executed instants. In next-event mode it is the
	// direct measure of how much of the timeline was actually visited —
	// the quiescence fast path shows up as steps ≪ duration/tick — and
	// regression tests assert on it.
	steps uint64

	// stopRequested halts Run/RunUntil at the end of the current instant.
	stopRequested bool
	// tasksDirty marks stopped tasks awaiting removal.
	tasksDirty bool
	// advanceHook, when set, runs once per executed instant before any
	// callback at that instant. The kernel uses it to settle lazily
	// deferred accounting (baseline idle billing) so every observer at
	// the instant sees fully up-to-date state.
	advanceHook func(now units.Time)
	// freeEvents is the fired-event freelist: step returns each event
	// here before its callback runs, and At reuses them, so steady-state
	// event scheduling allocates nothing.
	freeEvents []*event
	// freeTasks is the Reset-time task freelist; see Reset.
	freeTasks []*Task
	// entry marks the advance-hook invocation at a RunUntil entry
	// instant, whose due tasks rewindDue is about to re-arm (see
	// EntryInstant).
	entry bool
}

// NewEngineMode returns an engine with an explicit advancement mode.
func NewEngineMode(seed int64, mode Mode) *Engine {
	src := &countingSource{}
	e := &Engine{
		tick: DefaultTick,
		mode: mode,
		rng:  rand.New(src),
		src:  src,
	}
	e.rng.Seed(seed)
	return e
}

// Reset reinitializes the engine in place to the exact state
// NewEngineMode(seed, mode) would produce, recycling the event heap,
// the task list and their element objects. The fleet runner reuses one
// engine per worker this way. Every *Task handed out during the
// previous life is invalidated: pending events move to the freelist and
// task objects are reused by subsequent Every calls, so callers must
// drop them alongside the Reset.
func (e *Engine) Reset(seed int64, mode Mode) {
	for _, ev := range e.events {
		ev.fn = nil
		e.freeEvents = append(e.freeEvents, ev)
	}
	e.events = e.events[:0]
	for i, t := range e.tasks {
		*t = Task{}
		e.freeTasks = append(e.freeTasks, t)
		e.tasks[i] = nil
	}
	e.tasks = e.tasks[:0]
	e.now = 0
	e.mode = mode
	e.seq = 0
	e.built = 0
	e.steps = 0
	e.stopRequested = false
	e.tasksDirty = false
	e.advanceHook = nil
	// rand.Rand.Seed delegates to the counting source's Seed, which
	// records the seed and zeroes the draw counter; the source itself is
	// seeded on the first draw.
	e.rng.Seed(seed)
}

// MarkBuilt records the end of the owner's construction: a snapshot
// saves and loads only while every pending event was scheduled before
// it.
func (e *Engine) MarkBuilt() { e.built = e.seq }

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Tick returns the engine quantum.
func (e *Engine) Tick() units.Time { return e.tick }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SetAdvanceHook installs fn to run once per executed instant, before
// any event or task callback at that instant. Pass nil to remove.
func (e *Engine) SetAdvanceHook(fn func(now units.Time)) { e.advanceHook = fn }

// Stop requests that Run or RunUntil return at the end of the current
// instant. It is the mechanism experiments use to end early (for example
// when a workload completes).
func (e *Engine) Stop() { e.stopRequested = true }

// At schedules fn to run at the given absolute simulated time, which must
// not be in the past. Events due at the same instant run in the order
// they were scheduled.
func (e *Engine) At(t units.Time, fn func(e *Engine)) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	var ev *event
	if n := len(e.freeEvents); n > 0 {
		ev = e.freeEvents[n-1]
		e.freeEvents[n-1] = nil
		e.freeEvents = e.freeEvents[:n-1]
		ev.at, ev.fn, ev.seq = t, fn, e.seq
	} else {
		ev = &event{at: t, fn: fn, seq: e.seq}
	}
	e.seq++
	heap.Push(&e.events, ev)
}

// After schedules fn to run after delay d from now.
func (e *Engine) After(d units.Time, fn func(e *Engine)) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Every registers a periodic task and returns it. Period must be a
// positive multiple of the tick; phase must be non-negative and a
// multiple of the tick.
func (e *Engine) Every(name string, period units.Time, fn func(e *Engine)) *Task {
	return e.EveryPhased(name, period, 0, fn)
}

// EveryPhased registers a periodic task with a phase offset.
func (e *Engine) EveryPhased(name string, period, phase units.Time, fn func(e *Engine)) *Task {
	if period <= 0 || period%e.tick != 0 {
		panic(fmt.Sprintf("sim: task %q period %v is not a positive multiple of tick %v", name, period, e.tick))
	}
	if phase < 0 || phase%e.tick != 0 {
		panic(fmt.Sprintf("sim: task %q phase %v is not a non-negative multiple of tick %v", name, phase, e.tick))
	}
	var t *Task
	if n := len(e.freeTasks); n > 0 {
		t = e.freeTasks[n-1]
		e.freeTasks[n-1] = nil
		e.freeTasks = e.freeTasks[:n-1]
	} else {
		t = &Task{}
	}
	*t = Task{Name: name, Period: period, Phase: phase, Fn: fn, eng: e}
	t.nextDue = firstDueAt(period, phase, e.now)
	e.tasks = append(e.tasks, t)
	return t
}

// RunUntil advances simulated time until it reaches end (inclusive of
// work scheduled at end) or Stop is called. It returns the time at which
// it stopped.
//
// The entry instant is always (re-)stepped: a task due at the boundary
// between two consecutive Run calls fires in both, exactly as the
// original fixed-tick engine behaved (its outer loop re-entered step()
// at the instant the previous call ended on). Experiments that poll with
// repeated short Runs depend on that cadence, so both modes preserve it.
func (e *Engine) RunUntil(end units.Time) units.Time {
	if end < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) is before now %v", end, e.now))
	}
	e.stopRequested = false
	if e.advanceHook != nil {
		e.entry = true
		e.advanceHook(e.now)
		e.entry = false
	}
	e.rewindDue()
	for {
		e.step()
		if e.stopRequested || e.now >= end {
			break
		}
		e.advance(end)
	}
	return e.now
}

// Run advances simulated time by duration d. Equivalent to
// RunUntil(Now()+d).
func (e *Engine) Run(d units.Time) units.Time {
	return e.RunUntil(e.now + d)
}

// ResumeUntil continues a run from the current instant WITHOUT the
// Run-boundary re-step: the entry instant is assumed to have been fully
// executed already (by the RunUntil that ended there, or by the run a
// snapshot was taken from), so neither the entry advance-hook call nor
// rewindDue's re-arming happens. It is the continuation primitive
// checkpoint/resume needs — RunUntil(a) followed by ResumeUntil(b)
// executes exactly the instants a single RunUntil(b) would have
// executed, which the resume-equivalence tests assert.
func (e *Engine) ResumeUntil(end units.Time) units.Time {
	if end < e.now {
		panic(fmt.Sprintf("sim: ResumeUntil(%v) is before now %v", end, e.now))
	}
	e.stopRequested = false
	for e.now < end && !e.stopRequested {
		e.advance(end)
		e.step()
	}
	return e.now
}

// rewindDue re-arms every task that is due at the current instant by the
// periodic schedule, so the entry re-step of RunUntil fires it again
// (see RunUntil). Deferred tasks are revived too — the fixed-tick engine
// fired them at every due instant, and their owners' catch-up accounting
// makes the revival exact.
func (e *Engine) rewindDue() {
	for _, t := range e.tasks {
		if t.stopped {
			continue
		}
		if e.now >= t.Phase && (e.now-t.Phase)%t.Period == 0 {
			t.nextDue = e.now
			t.deferred = false
		}
	}
}

// advance moves the clock to the next instant: the following tick in
// fixed-tick mode, or the earliest due instant (clamped to end) in
// next-event mode.
func (e *Engine) advance(end units.Time) {
	if e.mode == ModeFixedTick {
		e.now += e.tick
	} else {
		e.now = e.nextWork(end)
	}
	if e.advanceHook != nil {
		e.advanceHook(e.now)
	}
}

// nextWork returns the earliest instant after now at which work is due,
// clamped to end. An event or task stamped at or before now (scheduled
// during the current instant after its phase of the step had passed)
// resolves to the immediately following tick, matching the fixed-tick
// engine's behaviour.
func (e *Engine) nextWork(end units.Time) units.Time {
	next := end
	if len(e.events) > 0 {
		at := e.events[0].at
		if at <= e.now {
			at = e.now + e.tick
		}
		if at < next {
			next = at
		}
	}
	for _, t := range e.tasks {
		if t.stopped || t.nextDue == MaxTime {
			continue
		}
		due := t.nextDue
		if due <= e.now {
			due = e.now + e.tick
		}
		if due < next {
			next = due
		}
	}
	if next <= e.now {
		next = e.now + e.tick
	}
	return next
}

// step performs the work of a single instant at the current time: due
// events first, then due periodic tasks in registration order. Tasks
// registered during the event phase may fire in the same instant; tasks
// registered from within the task loop wait for their next due instant,
// both exactly as the fixed-tick engine behaved (its task loop iterated
// a snapshot of the list).
func (e *Engine) step() {
	e.steps++
	for len(e.events) > 0 && e.events[0].at <= e.now {
		ev := heap.Pop(&e.events).(*event)
		fn := ev.fn
		// Recycle before invoking: the callback may itself schedule
		// events, and handing it the just-fired object keeps the
		// steady-state event churn allocation-free.
		ev.fn = nil
		e.freeEvents = append(e.freeEvents, ev)
		fn(e)
	}
	n := len(e.tasks)
	for i := 0; i < n; i++ {
		t := e.tasks[i]
		if t.stopped || t.nextDue > e.now {
			continue
		}
		if t.nextDue < e.now {
			// Stale nextDue (the task was registered too late to fire at
			// its stamped instant): realign to the period grid, firing
			// only if a grid point lands exactly here.
			t.nextDue = firstDueAt(t.Period, t.Phase, e.now)
			if t.nextDue > e.now {
				continue
			}
		}
		t.Fn(e)
		if !t.stopped && t.nextDue <= e.now {
			// A callback may defer or park its own task; preserve that
			// instead of rearming on the period grid.
			t.nextDue = e.now + t.Period
			t.deferred = false
		}
	}
	if e.tasksDirty {
		e.compactTasks()
	}
}

// compactTasks removes stopped tasks, preserving registration order.
func (e *Engine) compactTasks() {
	live := e.tasks[:0]
	for _, t := range e.tasks {
		if !t.stopped {
			live = append(live, t)
		}
	}
	for i := len(live); i < len(e.tasks); i++ {
		e.tasks[i] = nil
	}
	e.tasks = live
	e.tasksDirty = false
}

// Steps reports the number of instants the engine has executed. A
// fixed-tick engine executes one instant per tick; a next-event engine
// executes only the instants at which work was due, so Steps is the
// measure of how effective the quiescence machinery is.
func (e *Engine) Steps() uint64 { return e.steps }

// PendingEventAt reports whether a pending event is due at or before t.
// Called from an advance hook, it tells the hook whether the coming
// step's event phase will run any callback — the kernel's fast boundary
// path requires that it will not.
func (e *Engine) PendingEventAt(t units.Time) bool {
	return len(e.events) > 0 && e.events[0].at <= t
}

// EntryInstant reports whether the current advance-hook invocation is
// the one at a RunUntil entry instant, where rewindDue is about to
// re-arm tasks due on their period grid (the Run-boundary re-step).
// Work due exactly at such an instant must be left to the re-armed
// tasks, not settled by the hook, or it would be performed twice.
func (e *Engine) EntryInstant() bool { return e.entry }

// EarliestWork returns the earliest instant at which any pending event
// or any live task other than `except` is due, or MaxTime when nothing
// is pending. Every state change in the simulation happens at an
// executed instant, and executed instants only occur where an event or
// task is due, so nothing can perturb the system strictly before this
// bound — the safety argument adaptive watchdog tasks (the fleet's
// battery watch) build their deferral horizon on.
func (e *Engine) EarliestWork(except *Task) units.Time {
	earliest := MaxTime
	if len(e.events) > 0 && e.events[0].at < earliest {
		earliest = e.events[0].at
	}
	for _, t := range e.tasks {
		if t == except || t.stopped {
			continue
		}
		if t.nextDue < earliest {
			earliest = t.nextDue
		}
	}
	return earliest
}

// eventHeap orders events by (At, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
