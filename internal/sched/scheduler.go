package sched

import (
	"repro/internal/core"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// Scheduler is the single-CPU energy-aware round-robin scheduler.
type Scheduler struct {
	table    *kobj.Table
	cpuPower units.Power
	threads  []*Thread
	rr       int

	// runnable counts threads in state Runnable, maintained across every
	// state transition so the kernel can detect quiescence in O(1).
	runnable int
	// onActivity, when set, is invoked whenever a thread is created or
	// becomes runnable. The kernel hooks it to resume deferred periodic
	// work the moment the CPU has something to do again.
	onActivity func()

	// Accounting for the power model: busy ticks draw cpuPower, idle
	// ticks draw nothing beyond the device baseline.
	busyTicks int64
	idleTicks int64
	// carry holds sub-µJ residue of the per-tick CPU cost.
	costCarryDT units.Time
	tickCost    units.Energy
}

// New returns a scheduler billing the given active-CPU power (the
// profile's 137 mW for the Dream).
func New(table *kobj.Table, cpuPower units.Power) *Scheduler {
	return &Scheduler{table: table, cpuPower: cpuPower}
}

// Reset reinitializes the scheduler in place to the state New would
// produce, keeping the thread list's backing array. All threads of the
// previous life are forgotten; the caller discards them wholesale (the
// fleet runner recycling a kernel).
func (s *Scheduler) Reset(cpuPower units.Power) {
	s.cpuPower = cpuPower
	clear(s.threads)
	s.threads = s.threads[:0]
	s.rr = 0
	s.runnable = 0
	s.onActivity = nil
	s.busyTicks = 0
	s.idleTicks = 0
	s.costCarryDT = 0
	s.tickCost = 0
}

// CPUPower returns the active CPU power being billed.
func (s *Scheduler) CPUPower() units.Power { return s.cpuPower }

// NewThread creates a thread in the given container, drawing from the
// given reserves in order. A nil runner yields a pure spinner.
func (s *Scheduler) NewThread(parent *kobj.Container, name string, lbl label.Label, p label.Priv, runner Runner, reserves ...*core.Reserve) *Thread {
	t := &Thread{
		name:     name,
		priv:     p,
		reserves: reserves,
		state:    Runnable,
		runner:   runner,
		sched:    s,
	}
	t.OnRelease(func() { t.setState(Exited) })
	s.table.Register(&t.Base, kobj.KindThread, lbl, parent, t)
	s.threads = append(s.threads, t)
	s.runnable++
	s.notifyActivity()
	return t
}

// SetActivityHook installs fn to be called whenever a thread is created
// or transitions into Runnable. Pass nil to remove.
func (s *Scheduler) SetActivityHook(fn func()) { s.onActivity = fn }

func (s *Scheduler) notifyActivity() {
	if s.onActivity != nil {
		s.onActivity()
	}
}

// RunnableCount returns the number of threads currently in Runnable
// state (including energy-throttled ones, which still need the CPU
// scheduled to retry).
func (s *Scheduler) RunnableCount() int { return s.runnable }

// NextWake returns the earliest wake time among sleeping threads. ok is
// false when no thread is sleeping. Blocked threads are excluded: they
// wake only through an explicit Wake, which fires the activity hook.
func (s *Scheduler) NextWake() (units.Time, bool) {
	var at units.Time
	ok := false
	for _, t := range s.threads {
		if t.state != Sleeping {
			continue
		}
		if !ok || t.wakeAt < at {
			at, ok = t.wakeAt, true
		}
	}
	return at, ok
}

// AddIdleTicks records n quanta the CPU provably idled without Tick
// being called, the closed-form accounting for quiescent intervals the
// kernel skipped. Utilization and tick totals stay identical to a
// tick-by-tick run.
func (s *Scheduler) AddIdleTicks(n int64) {
	if n > 0 {
		s.idleTicks += n
	}
}

// EachThread calls fn for every thread in creation order without
// allocating. fn must not create threads.
func (s *Scheduler) EachThread(fn func(*Thread)) {
	for _, t := range s.threads {
		fn(t)
	}
}

// Tick advances the scheduler by one quantum of length dt at simulated
// time now: it wakes due sleepers, then scheduling proceeds round-robin
// from the thread after the last one that ran, looking for a thread that
// is runnable and whose reserves can pay for the quantum. The chosen
// thread is billed and stepped. If no thread can run the CPU idles.
//
// It returns the thread that ran, or nil if the CPU idled.
func (s *Scheduler) Tick(now units.Time, dt units.Time) *Thread {
	cost := s.quantumCost(dt)
	for _, t := range s.threads {
		if t.state == Sleeping && now >= t.wakeAt {
			t.setState(Runnable)
		}
	}
	n := len(s.threads)
	if n == 0 {
		s.idleTicks++
		return nil
	}
	for i := 0; i < n; i++ {
		idx := (s.rr + i) % n
		t := s.threads[idx]
		if t.state != Runnable {
			continue
		}
		r := t.payable(cost)
		if r == nil {
			// Runnable but energy-throttled.
			t.throttledTicks++
			continue
		}
		if err := r.Consume(t.priv, cost); err != nil {
			// Raced with the probe only in pathological label setups;
			// treat as throttled.
			t.throttledTicks++
			continue
		}
		t.cpuConsumed += cost
		t.ticksRun++
		s.busyTicks++
		s.rr = (idx + 1) % n
		if t.runner != nil {
			t.runner.Step(now, t)
		}
		return t
	}
	s.idleTicks++
	return nil
}

// quantumCost returns the CPU energy for one quantum, memoized per dt.
func (s *Scheduler) quantumCost(dt units.Time) units.Energy {
	if dt != s.costCarryDT {
		s.costCarryDT = dt
		s.tickCost = s.cpuPower.Over(dt)
	}
	return s.tickCost
}

// BusyTicks returns the number of quanta the CPU executed a thread.
func (s *Scheduler) BusyTicks() int64 { return s.busyTicks }

// IdleTicks returns the number of quanta the CPU idled.
func (s *Scheduler) IdleTicks() int64 { return s.idleTicks }

// Utilization returns busy/(busy+idle) as a percentage, 0 if never
// ticked.
func (s *Scheduler) Utilization() float64 {
	total := s.busyTicks + s.idleTicks
	if total == 0 {
		return 0
	}
	return 100 * float64(s.busyTicks) / float64(total)
}
