// Package currentcy implements the comparison baseline the Cinder paper
// positions itself against: ECOSystem's "currentcy" abstraction
// [Zeng 2002, 2003]. Currentcy unifies device power states into a single
// spendable unit, allocated epoch by epoch to *flat* task containers —
// "a flat hierarchy of energy principals" (§2.1).
//
// The model here follows the published design: a target battery drain
// rate is divided among tasks in proportion to their shares each
// allocation epoch; unspent currentcy accumulates per task up to a cap;
// processes spend from their task's single balance. Two structural
// limitations — the ones §2.3 calls out — follow directly and are
// demonstrated by the "baseline" experiment and this package's tests:
//
//   - no subdivision: a browser and its plugin share one task balance,
//     so the plugin can starve the browser ("it has no way to prevent
//     its plugins from consuming its own resources once they are
//     spawned");
//   - no delegation: tasks cannot pool their allocations, so two
//     background applications can never jointly afford a radio
//     activation that each alone cannot ("prior systems do not permit
//     delegation").
package currentcy

import (
	"errors"
	"fmt"

	"repro/internal/units"
)

// DefaultEpoch is the allocation period; ECOSystem allocated every
// "energy epoch".
const DefaultEpoch = units.Second

// ErrBroke reports a spend exceeding the task's balance.
var ErrBroke = errors.New("currentcy: insufficient currentcy")

// Task is one flat energy principal: a group of related processes
// sharing a single balance.
type Task struct {
	name string
	// share is the task's proportional weight in each epoch's
	// allocation.
	share int64
	// cap bounds accumulation (ECOSystem's per-task cap that keeps
	// hoarding bounded; there is no equivalent of Cinder's taps).
	cap     units.Energy
	balance units.Energy
}

// Spend consumes currentcy from the task balance. Any process in the
// task may call it — that is precisely the isolation gap: there is no
// way to wall off a subset of the task's processes.
func (t *Task) Spend(amount units.Energy) error {
	if amount < 0 {
		panic("currentcy: negative spend")
	}
	if t.balance < amount {
		return fmt.Errorf("%w: task %q has %v, needs %v", ErrBroke, t.name, t.balance, amount)
	}
	t.balance -= amount
	return nil
}

// CanSpend reports whether a spend would be admitted.
func (t *Task) CanSpend(amount units.Energy) bool { return t.balance >= amount }

// System is one ECOSystem instance.
type System struct {
	targetRate units.Power
	epoch      units.Time
	tasks      []*Task
	totalShare int64
	carry      int64
}

// New creates a system that allocates targetRate worth of currentcy per
// unit time across its tasks (ECOSystem derives the rate from a target
// battery lifetime).
func New(targetRate units.Power, epoch units.Time) *System {
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	return &System{targetRate: targetRate, epoch: epoch}
}

// AddTask registers a task with a proportional share and accumulation
// cap.
func (s *System) AddTask(name string, share int64, cap units.Energy) *Task {
	if share <= 0 {
		panic("currentcy: non-positive share")
	}
	t := &Task{name: name, share: share, cap: cap}
	s.tasks = append(s.tasks, t)
	s.totalShare += share
	return t
}

// Allocate runs one epoch: each task receives its proportional slice of
// targetRate × epoch, clamped to its cap. Unused allocation above the
// cap is simply lost — there is no battery to return it to, another
// contrast with the reserve graph's conservation.
func (s *System) Allocate() {
	if s.totalShare == 0 {
		return
	}
	var total units.Energy
	total, s.carry = s.targetRate.OverRem(s.epoch, s.carry)
	for _, t := range s.tasks {
		slice := total * units.Energy(t.share) / units.Energy(s.totalShare)
		t.balance += slice
		if t.balance > t.cap {
			t.balance = t.cap
		}
	}
}
