// Package sched implements Cinder's energy-aware CPU scheduler (§3.2):
// a thread is allowed to run only when at least one of its energy
// reserves can pay for the scheduling quantum. Tying reserves to the
// scheduler prevents new spending, "which is sufficient to throttle
// energy consumption".
//
// The scheduler is a single-CPU round-robin over runnable, payable
// threads, advanced once per simulation tick. Each scheduled tick bills
// the CPU's active power for one tick to the thread's first reserve that
// can cover it.
package sched

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// State is a thread's scheduling state.
type State uint8

const (
	// Runnable threads compete for the CPU.
	Runnable State = iota
	// Sleeping threads wake at a set time.
	Sleeping
	// Blocked threads wait for an explicit Wake (e.g. netd holding a
	// sender until the radio pool fills, §5.5.2).
	Blocked
	// Exited threads never run again.
	Exited
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Sleeping:
		return "sleeping"
	case Blocked:
		return "blocked"
	case Exited:
		return "exited"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Runner is the behaviour a thread executes. Step is called once for
// every tick the thread is scheduled; the thread may change its own
// state (Sleep, Block, Exit) from within Step. A Runner that does
// nothing models a CPU-bound spinner.
type Runner interface {
	Step(now units.Time, th *Thread)
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(now units.Time, th *Thread)

// Step implements Runner.
func (f RunnerFunc) Step(now units.Time, th *Thread) { f(now, th) }

// Thread is a schedulable principal. Threads are kernel objects; their
// energy identity is the ordered list of reserves they may draw from
// (§3.2: "all threads draw from one or more energy reserves").
type Thread struct {
	kobj.Base
	name     string
	priv     label.Priv
	reserves []*core.Reserve
	state    State
	wakeAt   units.Time
	runner   Runner
	sched    *Scheduler

	// Accounting read by experiments (the data behind Fig. 9/12).
	cpuConsumed    units.Energy
	ticksRun       int64
	throttledTicks int64
}

// Priv returns the thread's privilege set.
func (t *Thread) Priv() label.Priv { return t.priv }

// State returns the scheduling state.
func (t *Thread) State() State { return t.state }

// EachReserve calls fn for each reserve in draw-list order without
// allocating; fn returning false stops the iteration early.
func (t *Thread) EachReserve(fn func(*core.Reserve) bool) {
	for _, r := range t.reserves {
		if !fn(r) {
			return
		}
	}
}

// ActiveReserve returns the first reserve, or nil if none.
func (t *Thread) ActiveReserve() *core.Reserve {
	if len(t.reserves) == 0 {
		return nil
	}
	return t.reserves[0]
}

// setState transitions the thread, maintaining the scheduler's runnable
// count and firing its activity hook on transitions into Runnable.
func (t *Thread) setState(s State) {
	if t.state == s {
		return
	}
	if t.sched != nil {
		if t.state == Runnable {
			t.sched.runnable--
		}
		if s == Runnable {
			t.sched.runnable++
		}
	}
	t.state = s
	if s == Runnable && t.sched != nil {
		t.sched.notifyActivity()
	}
}

// Sleep puts the thread to sleep until the given absolute time.
func (t *Thread) Sleep(until units.Time) {
	if t.state == Exited {
		return
	}
	t.setState(Sleeping)
	t.wakeAt = until
}

// Block parks the thread until Wake is called.
func (t *Thread) Block() {
	if t.state == Exited {
		return
	}
	t.setState(Blocked)
}

// Wake makes a sleeping or blocked thread runnable.
func (t *Thread) Wake() {
	if t.state == Exited {
		return
	}
	t.setState(Runnable)
}

// Exit permanently stops the thread.
func (t *Thread) Exit() { t.setState(Exited) }

// CPUConsumed returns the total CPU energy billed to this thread.
func (t *Thread) CPUConsumed() units.Energy { return t.cpuConsumed }

// TicksRun returns the number of ticks the thread was scheduled.
func (t *Thread) TicksRun() int64 { return t.ticksRun }

// ThrottledTicks returns the number of ticks the thread was runnable but
// could not pay for the CPU — the visible effect of an empty reserve.
func (t *Thread) ThrottledTicks() int64 { return t.throttledTicks }

// payable returns the first reserve that can cover cost, or nil.
func (t *Thread) payable(cost units.Energy) *core.Reserve {
	for _, r := range t.reserves {
		if r.CanConsume(t.priv, cost) {
			return r
		}
	}
	return nil
}
