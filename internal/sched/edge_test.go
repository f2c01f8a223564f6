package sched

import (
	"testing"

	"repro/internal/label"
	"repro/internal/units"
)

func TestStateStrings(t *testing.T) {
	cases := map[State]string{
		Runnable: "runnable",
		Sleeping: "sleeping",
		Blocked:  "blocked",
		Exited:   "exited",
		State(9): "state(9)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestActiveReserveNilWhenEmpty(t *testing.T) {
	r := newRig()
	th := r.sched.NewThread(r.root, "t", label.Public(), label.Priv{}, nil)
	if th.ActiveReserve() != nil {
		t.Fatal("empty draw list has an active reserve")
	}
	// A thread with no reserves never runs but never panics.
	r.run(0, 10)
	if th.TicksRun() != 0 {
		t.Fatal("reserveless thread ran")
	}
}

func TestSleepOnExitedThreadIgnored(t *testing.T) {
	r := newRig()
	th := r.sched.NewThread(r.root, "t", label.Public(), label.Priv{}, nil,
		r.reserveWith("r", units.Joule))
	th.Exit()
	th.Sleep(100)
	th.Block()
	if th.State() != Exited {
		t.Fatalf("state = %v after post-exit transitions", th.State())
	}
}

func TestRunnerExitsMidStep(t *testing.T) {
	// A runner that exits in its first step runs exactly once.
	r := newRig()
	res := r.reserveWith("r", units.Joule)
	var th *Thread
	th = r.sched.NewThread(r.root, "oneshot", label.Public(), label.Priv{},
		RunnerFunc(func(now units.Time, t *Thread) { t.Exit() }), res)
	r.run(0, 100)
	if th.TicksRun() != 1 {
		t.Fatalf("ticks = %d, want 1", th.TicksRun())
	}
}

func TestCPUPowerAccessor(t *testing.T) {
	r := newRig()
	if r.sched.CPUPower() != units.Milliwatts(137) {
		t.Fatalf("CPUPower = %v", r.sched.CPUPower())
	}
}

func TestQuantumCostChangesWithTickLength(t *testing.T) {
	// Switching tick lengths mid-run recomputes the quantum cost.
	r := newRig()
	res := r.reserveWith("r", units.Joule)
	th := r.sched.NewThread(r.root, "t", label.Public(), label.Priv{}, nil, res)
	r.sched.Tick(0, units.Millisecond)
	r.sched.Tick(1, 10*units.Millisecond)
	want := units.Milliwatts(137).Over(units.Millisecond) +
		units.Milliwatts(137).Over(10*units.Millisecond)
	if th.CPUConsumed() != want {
		t.Fatalf("consumed %v, want %v", th.CPUConsumed(), want)
	}
}

func TestThreadsAccessor(t *testing.T) {
	r := newRig()
	a := r.sched.NewThread(r.root, "a", label.Public(), label.Priv{}, nil)
	b := r.sched.NewThread(r.root, "b", label.Public(), label.Priv{}, nil)
	// EachThread visits the threads in creation order without copying,
	// and must not allocate — it exists for hot-ish diagnostic paths.
	var seen []*Thread
	r.sched.EachThread(func(th *Thread) { seen = append(seen, th) })
	if len(seen) != 2 || seen[0] != a || seen[1] != b {
		t.Fatalf("EachThread = %v", seen)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.sched.EachThread(func(*Thread) {})
	}); n != 0 {
		t.Fatalf("EachThread allocates %v times, want 0", n)
	}
}

func TestRoundRobinSkipsSleepersWithoutCharge(t *testing.T) {
	// A sleeping thread costs nothing; the runnable one gets every
	// tick.
	r := newRig()
	ra := r.reserveWith("ra", units.Joule)
	rb := r.reserveWith("rb", units.Joule)
	a := r.sched.NewThread(r.root, "a", label.Public(), label.Priv{}, nil, ra)
	b := r.sched.NewThread(r.root, "b", label.Public(), label.Priv{}, nil, rb)
	b.Sleep(units.Hour)
	r.run(0, 100)
	if a.TicksRun() != 100 {
		t.Fatalf("a ran %d", a.TicksRun())
	}
	if b.TicksRun() != 0 {
		t.Fatalf("b ran %d while sleeping", b.TicksRun())
	}
	sb, _ := rb.Stats(label.Priv{})
	if sb.Consumed != 0 {
		t.Fatal("sleeping thread was billed")
	}
}

func TestDeadReserveTreatedAsUnpayable(t *testing.T) {
	r := newRig()
	res := r.reserveWith("r", units.Joule)
	th := r.sched.NewThread(r.root, "t", label.Public(), label.Priv{}, nil, res)
	if err := r.tbl.Delete(res.ObjectID()); err != nil {
		t.Fatal(err)
	}
	r.run(0, 10)
	if th.TicksRun() != 0 {
		t.Fatal("thread ran on a dead reserve")
	}
}
