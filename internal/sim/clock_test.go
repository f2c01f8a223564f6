package sim

import (
	"testing"

	"repro/internal/units"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Tick() != units.Millisecond {
		t.Fatalf("Tick() = %v, want 1 ms", e.Tick())
	}
}

func TestRunAdvancesTime(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	e.Run(500 * units.Millisecond)
	if e.Now() != 500*units.Millisecond {
		t.Fatalf("Now() = %v, want 500 ms", e.Now())
	}
	e.Run(units.Second)
	if e.Now() != 1500*units.Millisecond {
		t.Fatalf("Now() = %v, want 1500 ms", e.Now())
	}
}

func TestEventFiresAtScheduledTime(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	var fired units.Time = -1
	e.At(42*units.Millisecond, func(e *Engine) { fired = e.Now() })
	e.Run(100 * units.Millisecond)
	if fired != 42*units.Millisecond {
		t.Fatalf("event fired at %v, want 42 ms", fired)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	e.Run(10 * units.Millisecond)
	var fired units.Time = -1
	e.After(5*units.Millisecond, func(e *Engine) { fired = e.Now() })
	e.Run(20 * units.Millisecond)
	if fired != 15*units.Millisecond {
		t.Fatalf("event fired at %v, want 15 ms", fired)
	}
}

func TestEventsAtSameTimeFIFO(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(10*units.Millisecond, func(*Engine) { order = append(order, i) })
	}
	e.Run(20 * units.Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestEventOrderingAcrossTimes(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	var order []units.Time
	times := []units.Time{30, 10, 20, 5, 25}
	for _, at := range times {
		e.At(at, func(e *Engine) { order = append(order, e.Now()) })
	}
	e.Run(50)
	want := []units.Time{5, 10, 20, 25, 30}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPeriodicTask(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	count := 0
	e.Every("counter", 10*units.Millisecond, func(*Engine) { count++ })
	e.Run(100 * units.Millisecond)
	// Fires at t=0,10,...,100 inclusive: 11 times.
	if count != 11 {
		t.Fatalf("task fired %d times, want 11", count)
	}
}

func TestPeriodicTaskPhase(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	var at []units.Time
	e.EveryPhased("phased", 50*units.Millisecond, 15*units.Millisecond,
		func(e *Engine) { at = append(at, e.Now()) })
	e.Run(200 * units.Millisecond)
	want := []units.Time{15, 65, 115, 165}
	if len(at) != len(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	}
}

func TestTaskStop(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	count := 0
	var task *Task
	task = e.Every("self-stop", 10, func(*Engine) {
		count++
		if count == 3 {
			task.Stop()
		}
	})
	e.Run(200)
	if count != 3 {
		t.Fatalf("task fired %d times after Stop, want 3", count)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	e.At(50, func(e *Engine) { e.Stop() })
	end := e.Run(1000)
	if end != 50 {
		t.Fatalf("stopped at %v, want 50 ms", end)
	}
	// A subsequent Run resumes from where we stopped.
	e.Run(10)
	if e.Now() != 60 {
		t.Fatalf("Now() = %v after resume, want 60 ms", e.Now())
	}
}

func TestEventScheduledDuringTickSameTime(t *testing.T) {
	// An event that schedules another event for the same instant must see
	// it fire within the same tick (cascading zero-delay work).
	e := NewEngineMode(1, ModeNextEvent)
	var order []string
	e.At(10, func(e *Engine) {
		order = append(order, "outer")
		e.At(10, func(*Engine) { order = append(order, "inner") })
	})
	e.Run(20)
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v, want [outer inner]", order)
	}
}

func TestPanicOnPastEvent(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	e.Run(100)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func(*Engine) {})
}

func TestPanicOnBadPeriod(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	e.Every("bad", 0, func(*Engine) {})
}

func TestDeterministicRand(t *testing.T) {
	a := NewEngineMode(42, ModeNextEvent)
	b := NewEngineMode(42, ModeNextEvent)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewEngineMode(43, ModeNextEvent)
	same := true
	for i := 0; i < 10; i++ {
		if a.Rand().Int63() != c.Rand().Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestPendingEvents(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	e.At(10, func(*Engine) {})
	e.At(20, func(*Engine) {})
	if n := len(e.events); n != 2 {
		t.Fatalf("pending events = %d, want 2", n)
	}
	e.Run(15)
	if n := len(e.events); n != 1 {
		t.Fatalf("pending events = %d, want 1", n)
	}
}

func TestTasksRunInRegistrationOrder(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	var order []string
	e.Every("b", 10, func(*Engine) { order = append(order, "b") })
	e.Every("a", 10, func(*Engine) { order = append(order, "a") })
	e.Run(5) // only t=0 firing
	if len(order) < 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a ...]", order)
	}
}

func TestLongRunTickCount(t *testing.T) {
	// 20 simulated minutes at 1 ms ticks: the engine must visit every
	// tick exactly once.
	e := NewEngineMode(1, ModeNextEvent)
	ticks := 0
	e.Every("tick", units.Millisecond, func(*Engine) { ticks++ })
	e.Run(20 * units.Minute)
	want := int(20*units.Minute/units.Millisecond) + 1
	if ticks != want {
		t.Fatalf("ticks = %d, want %d", ticks, want)
	}
}
