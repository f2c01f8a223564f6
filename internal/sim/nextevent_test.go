package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/units"
)

// firing is one callback invocation, identified for log comparison.
type firing struct {
	At units.Time
	ID string
}

// buildRandomSchedule installs an identical randomized workload on an
// engine: periodic tasks (some self-stopping, some phased), one-shot
// events, events that spawn events and tasks, and mid-run stops of other
// tasks. All randomness comes from the shared seed so both engine modes
// construct the same schedule.
func buildRandomSchedule(e *Engine, seed int64, log *[]firing) {
	rng := rand.New(rand.NewSource(seed))
	record := func(id string) func(*Engine) {
		return func(e *Engine) { *log = append(*log, firing{e.Now(), id}) }
	}
	var tasks []*Task
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("task%d", i)
		period := units.Time(1+rng.Intn(40)) * units.Millisecond
		phase := units.Time(rng.Intn(30)) * units.Millisecond
		tasks = append(tasks, e.EveryPhased(id, period, phase, record(id)))
	}
	// A self-stopping task.
	count := 0
	var selfStop *Task
	selfStop = e.Every("self-stop", 7*units.Millisecond, func(e *Engine) {
		*log = append(*log, firing{e.Now(), "self-stop"})
		count++
		if count == 5 {
			selfStop.Stop()
		}
	})
	// Events, including cascades and task manipulation.
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("ev%d", i)
		at := units.Time(rng.Intn(400))
		kill := rng.Intn(len(tasks))
		spawnAt := at + units.Time(rng.Intn(50))
		e.At(at, func(e *Engine) {
			*log = append(*log, firing{e.Now(), id})
			if spawnAt >= e.Now() {
				e.At(spawnAt, record(id+"-child"))
			}
			if kill%3 == 0 {
				tasks[kill].Stop()
			}
			if kill%4 == 0 {
				e.Every(id+"-spawned", 11*units.Millisecond, record(id+"-spawned"))
			}
		})
	}
}

// TestModeEquivalenceRandomSchedules is the engine-level property test:
// arbitrary schedules must produce the identical firing sequence under
// fixed-tick and next-event advancement, including across consecutive
// Run calls (whose boundary instants are re-stepped).
func TestModeEquivalenceRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		var fixedLog, nextLog []firing
		ef := NewEngineMode(seed, ModeFixedTick)
		buildRandomSchedule(ef, seed, &fixedLog)
		en := NewEngineMode(seed, ModeNextEvent)
		buildRandomSchedule(en, seed, &nextLog)
		// Multiple Run calls exercise boundary re-stepping.
		for i := 0; i < 3; i++ {
			ef.Run(150 * units.Millisecond)
			en.Run(150 * units.Millisecond)
		}
		if !reflect.DeepEqual(fixedLog, nextLog) {
			n := len(fixedLog)
			if len(nextLog) < n {
				n = len(nextLog)
			}
			for i := 0; i < n; i++ {
				if fixedLog[i] != nextLog[i] {
					t.Fatalf("seed %d: logs diverge at %d: fixed %v vs next %v",
						seed, i, fixedLog[i], nextLog[i])
				}
			}
			t.Fatalf("seed %d: log lengths diverge: fixed %d vs next %d",
				seed, len(fixedLog), len(nextLog))
		}
	}
}

// TestSkipAheadNeverLateNeverTwice asserts the next-event invariant
// directly: within a single Run, every periodic task fires exactly at
// phase, phase+period, phase+2·period, … — never late, never twice.
func TestSkipAheadNeverLateNeverTwice(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngineMode(seed, ModeNextEvent)
		type spec struct {
			period, phase units.Time
			fired         []units.Time
		}
		var specs []*spec
		for i := 0; i < 6; i++ {
			s := &spec{
				period: units.Time(1 + rng.Intn(60)),
				phase:  units.Time(rng.Intn(40)),
			}
			specs = append(specs, s)
			e.EveryPhased(fmt.Sprintf("t%d", i), s.period, s.phase,
				func(e *Engine) { s.fired = append(s.fired, e.Now()) })
		}
		// Sparse events to force irregular jumps.
		for i := 0; i < 5; i++ {
			e.At(units.Time(rng.Intn(900)), func(*Engine) {})
		}
		end := units.Time(1000)
		e.Run(end)
		for i, s := range specs {
			want := s.phase
			for j, at := range s.fired {
				if at != want {
					t.Fatalf("seed %d task %d firing %d at %v, want %v", seed, i, j, at, want)
				}
				want += s.period
			}
			if want <= end {
				t.Fatalf("seed %d task %d: missed firing at %v (fired %d times)", seed, i, want, len(s.fired))
			}
		}
	}
}

func TestStoppedTasksAreRemoved(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	var tasks []*Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, e.Every(fmt.Sprintf("t%d", i), 10, func(*Engine) {}))
	}
	if len(e.tasks) != 10 {
		t.Fatalf("tasks = %d, want 10", len(e.tasks))
	}
	for _, task := range tasks[:7] {
		task.Stop()
	}
	e.Run(20) // removal happens at the next executed instant
	if len(e.tasks) != 3 {
		t.Fatalf("tasks = %d after stopping 7, want 3", len(e.tasks))
	}
}

func TestDeferUntilSkipsQuietly(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	var fired []units.Time
	var task *Task
	task = e.Every("worker", 10, func(e *Engine) { fired = append(fired, e.Now()) })
	e.At(25, func(*Engine) { task.DeferUntil(95) }) // next firing: grid point 100
	e.Run(120)
	want := []units.Time{0, 10, 20, 100, 110, 120}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

func TestParkAndResume(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	var fired []units.Time
	var task *Task
	task = e.Every("worker", 10, func(e *Engine) { fired = append(fired, e.Now()) })
	e.At(15, func(*Engine) {
		task.Park()
		if task.NextDue() != MaxTime {
			t.Errorf("NextDue = %v after Park, want MaxTime", task.NextDue())
		}
	})
	e.At(35, func(*Engine) { task.Resume() })
	e.Run(60)
	want := []units.Time{0, 10, 40, 50, 60}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

func TestResumeWithoutDeferIsNoop(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	count := 0
	task := e.Every("worker", 10, func(*Engine) { count++ })
	e.Run(10)
	before := task.NextDue()
	task.Resume() // never deferred: must not pull the firing earlier
	if task.NextDue() != before {
		t.Fatalf("Resume moved an on-schedule task from %v to %v", before, task.NextDue())
	}
}

func TestRunBoundaryRestepParity(t *testing.T) {
	// A task due exactly at the boundary of consecutive Run calls fires
	// in both — the historical engine behaviour experiments rely on —
	// and identically in both modes.
	for _, mode := range []Mode{ModeFixedTick, ModeNextEvent} {
		e := NewEngineMode(1, mode)
		count := 0
		e.Every("t", 10, func(*Engine) { count++ })
		e.Run(20) // fires at 0, 10, 20
		e.Run(20) // re-fires at 20, then 30, 40
		if count != 6 {
			t.Fatalf("mode %v: count = %d, want 6 (boundary double-fire)", mode, count)
		}
	}
}

func TestNextEventJumpsLongIdleGaps(t *testing.T) {
	// With a single sparse task, a next-event engine must execute only
	// the due instants: a 10-minute run of a 1-minute task is 11 steps,
	// which would take ~600k instants tick by tick.
	e := NewEngineMode(1, ModeNextEvent)
	count := 0
	e.Every("sparse", units.Minute, func(*Engine) { count++ })
	e.Run(10 * units.Minute)
	if count != 11 {
		t.Fatalf("count = %d, want 11", count)
	}
	if e.Now() != 10*units.Minute {
		t.Fatalf("Now() = %v, want 10 min", e.Now())
	}
}

func TestAdvanceHookRunsOncePerInstant(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	var hookTimes []units.Time
	e.SetAdvanceHook(func(now units.Time) { hookTimes = append(hookTimes, now) })
	e.Every("t", 10, func(*Engine) {})
	e.At(15, func(*Engine) {})
	e.Run(30)
	want := []units.Time{0, 10, 15, 20, 30}
	if !reflect.DeepEqual(hookTimes, want) {
		t.Fatalf("hook times = %v, want %v", hookTimes, want)
	}
}

// TestEngineModeSelection: next-event is the zero Mode, and an explicit
// mode is honoured by construction and by Reset — there is no
// process-wide default to consult.
func TestEngineModeSelection(t *testing.T) {
	var zero Mode
	if zero != ModeNextEvent {
		t.Fatalf("zero Mode = %v, want next-event", zero)
	}
	e := NewEngineMode(1, ModeFixedTick)
	if e.mode != ModeFixedTick {
		t.Fatalf("explicit mode ignored: %v", e.mode)
	}
	e.Reset(1, ModeNextEvent)
	if e.mode != ModeNextEvent {
		t.Fatalf("Reset mode = %v, want next-event", e.mode)
	}
}
