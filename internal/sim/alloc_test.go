package sim

import (
	"testing"

	"repro/internal/units"
)

// allocEngine builds an engine with a handful of periodic tasks, the
// shape of a kernel's steady state.
func allocEngine() *Engine {
	e := NewEngineMode(1, ModeNextEvent)
	for i := 0; i < 4; i++ {
		e.Every("tick", units.Millisecond, func(*Engine) {})
	}
	e.Every("slow", 10*units.Millisecond, func(*Engine) {})
	return e
}

// TestRunZeroAllocs guards the engine's steady state: advancing through
// instants — stepping tasks, scanning the heap, compacting nothing —
// must not allocate.
func TestRunZeroAllocs(t *testing.T) {
	e := allocEngine()
	e.Run(100 * units.Millisecond) // warm up
	if n := testing.AllocsPerRun(50, func() { e.Run(10 * units.Millisecond) }); n != 0 {
		t.Fatalf("Run allocates %v times per call, want 0", n)
	}
}

// TestEventChurnZeroAllocs guards the event freelist: a self-renewing
// event chain — the radio-exchange shape — must reuse fired events
// instead of allocating fresh ones. Only the closure passed to At
// allocates, and a prescheduled callback avoids even that here.
func TestEventChurnZeroAllocs(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	var fn func(*Engine)
	fn = func(e *Engine) { e.After(units.Millisecond, fn) }
	e.After(units.Millisecond, fn)
	e.Run(10 * units.Millisecond) // warm up: allocate the one Event
	if n := testing.AllocsPerRun(50, func() { e.Run(10 * units.Millisecond) }); n != 0 {
		t.Fatalf("event churn allocates %v times per run, want 0", n)
	}
}

// TestTaskChurnKeepsCapacity is the compaction regression guard:
// registering and stopping tasks over and over must compact in place,
// not grow the live task count or leak stopped tasks into the scan.
func TestTaskChurnKeepsCapacity(t *testing.T) {
	e := NewEngineMode(1, ModeNextEvent)
	keep := e.Every("keeper", units.Millisecond, func(*Engine) {})
	for i := 0; i < 10_000; i++ {
		tsk := e.Every("churn", units.Millisecond, func(*Engine) {})
		tsk.Stop()
		e.Run(units.Millisecond)
	}
	if got := len(e.tasks); got != 1 {
		t.Fatalf("after churn, %d live tasks, want 1", got)
	}
	if keep.stopped {
		t.Fatal("keeper was stopped by compaction")
	}
	// The churn itself must not allocate task list capacity per cycle:
	// once warm, a register+stop+compact cycle reuses the freed slot and
	// the engine's Task freelist is only refilled by Reset, so steady
	// churn costs exactly the one Task allocation per Every.
	if n := testing.AllocsPerRun(100, func() {
		tsk := e.Every("churn", units.Millisecond, func(*Engine) {})
		tsk.Stop()
		e.Run(units.Millisecond)
	}); n > 1 {
		t.Fatalf("task churn allocates %v times per cycle, want ≤ 1 (the Task itself)", n)
	}
}

// TestResetRecyclesTasksAndEvents: after a Reset, re-registering the
// same task population and event load must reuse the freelists — the
// fleet runner's device recycling depends on it.
func TestResetRecyclesTasksAndEvents(t *testing.T) {
	e := allocEngine()
	e.After(units.Millisecond, func(*Engine) {})
	e.Run(100 * units.Millisecond)
	rebuild := func() {
		e.Reset(7, ModeNextEvent)
		for i := 0; i < 4; i++ {
			e.Every("tick", units.Millisecond, func(*Engine) {})
		}
		e.Every("slow", 10*units.Millisecond, func(*Engine) {})
		e.Run(10 * units.Millisecond)
	}
	rebuild() // warm freelists to this population
	if n := testing.AllocsPerRun(50, rebuild); n > 5 {
		// The five Every closures are genuinely fresh each rebuild; the
		// Task and Event objects must come from the freelists.
		t.Fatalf("engine rebuild allocates %v times, want ≤ 5 (the closures)", n)
	}
	if e.Now() != 10*units.Millisecond || len(e.tasks) != 5 {
		t.Fatalf("reset engine state: now %v tasks %d", e.Now(), len(e.tasks))
	}
}

// TestResetMatchesFresh: a recycled engine must behave exactly like a
// fresh one — same step count, same RNG stream, same task schedule.
func TestResetMatchesFresh(t *testing.T) {
	run := func(e *Engine) (steps uint64, rnd int64, now units.Time) {
		fired := 0
		e.Every("t", 3*units.Millisecond, func(*Engine) { fired++ })
		e.After(5*units.Millisecond, func(e *Engine) { e.After(units.Millisecond, func(*Engine) {}) })
		e.Run(50 * units.Millisecond)
		return e.Steps(), e.Rand().Int63(), e.Now()
	}
	fresh := NewEngineMode(42, ModeNextEvent)
	s1, r1, n1 := run(fresh)

	recycled := allocEngine()
	recycled.Run(123 * units.Millisecond)
	recycled.Reset(42, ModeNextEvent)
	s2, r2, n2 := run(recycled)

	if s1 != s2 || r1 != r2 || n1 != n2 {
		t.Fatalf("recycled run diverges: steps %d/%d rand %d/%d now %v/%v",
			s1, s2, r1, r2, n1, n2)
	}
}

// BenchmarkSteadyEngineStep: per-instant engine overhead with a
// kernel-shaped task population; CI-guarded to 0 B/op.
func BenchmarkSteadyEngineStep(b *testing.B) {
	e := allocEngine()
	e.Run(10 * units.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(units.Millisecond)
	}
}

// BenchmarkSteadyEngineReset: the fixed cost of recycling an engine for
// a device that never draws from its RNG — Reset, then re-register a
// kernel-shaped task population from prebuilt task funcs. Seeding is
// deferred to the first draw, so no draw means no seeding; CI-guarded
// to 0 B/op.
func BenchmarkSteadyEngineReset(b *testing.B) {
	e := allocEngine()
	fns := make([]func(*Engine), 5)
	for i := range fns {
		fns[i] = func(*Engine) {}
	}
	reset := func(seed int64) {
		e.Reset(seed, ModeNextEvent)
		for _, fn := range fns[:4] {
			e.Every("tick", units.Millisecond, fn)
		}
		e.Every("slow", 10*units.Millisecond, fns[4])
	}
	reset(0) // warm the task freelist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reset(int64(i))
	}
}
