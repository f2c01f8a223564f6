package sched

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// rig bundles the pieces every scheduler test needs.
type rig struct {
	tbl   *kobj.Table
	root  *kobj.Container
	graph *core.Graph
	sched *Scheduler
}

func newRig() *rig {
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, label.Public())
	g := core.NewGraph(tbl, root, label.Public(), core.Config{DecayHalfLife: -1})
	return &rig{tbl: tbl, root: root, graph: g,
		sched: New(tbl, units.Milliwatts(137))}
}

// reserveWith creates a reserve holding the given energy.
func (r *rig) reserveWith(name string, e units.Energy) *core.Reserve {
	res := r.graph.NewReserve(r.root, name, label.Public(), core.ReserveOpts{})
	if e > 0 {
		if err := r.graph.Transfer(label.Priv{}, r.graph.Battery(), res, e); err != nil {
			panic(err)
		}
	}
	return res
}

// run advances the scheduler n 1 ms ticks starting at time start.
func (r *rig) run(start units.Time, n int) {
	for i := 0; i < n; i++ {
		r.sched.Tick(start+units.Time(i), units.Millisecond)
	}
}

func TestEmptySchedulerIdles(t *testing.T) {
	r := newRig()
	if got := r.sched.Tick(0, units.Millisecond); got != nil {
		t.Fatalf("Tick on empty scheduler ran %v", got)
	}
	if r.sched.IdleTicks() != 1 {
		t.Fatal("idle tick not recorded")
	}
}

func TestThreadRunsWhileFunded(t *testing.T) {
	r := newRig()
	res := r.reserveWith("r", units.Joule)
	th := r.sched.NewThread(r.root, "spin", label.Public(), label.Priv{}, nil, res)
	r.run(0, 1000) // 1 s at 137 mW = 137 mJ
	if th.TicksRun() != 1000 {
		t.Fatalf("ticks = %d, want 1000", th.TicksRun())
	}
	if th.CPUConsumed() != 137*units.Millijoule {
		t.Fatalf("consumed = %v, want 137 mJ", th.CPUConsumed())
	}
	if r.graph.ConservationError() != 0 {
		t.Fatalf("conservation error %v", r.graph.ConservationError())
	}
}

func TestEmptyReserveThrottles(t *testing.T) {
	// §3.2: "threads that have depleted their energy reserves cannot
	// run".
	r := newRig()
	res := r.reserveWith("r", 137*units.Microjoule) // exactly one tick
	th := r.sched.NewThread(r.root, "spin", label.Public(), label.Priv{}, nil, res)
	r.run(0, 10)
	if th.TicksRun() != 1 {
		t.Fatalf("ticks = %d, want 1", th.TicksRun())
	}
	if th.ThrottledTicks() != 9 {
		t.Fatalf("throttled = %d, want 9", th.ThrottledTicks())
	}
	// The throttled ticks' consumptions failed whole: the one tick's
	// 137 µJ is all the reserve gave.
	st, _ := res.Stats(label.Priv{})
	if lvl, _ := res.Level(label.Priv{}); lvl != 0 || st.Consumed != 137*units.Microjoule {
		t.Fatalf("level %v, consumed %v; want 0 and one tick's 137 µJ", lvl, st.Consumed)
	}
}

func TestHalfRateTapGivesHalfUtilization(t *testing.T) {
	// The Fig. 9 configuration: a 68.5 mW tap funds half the 137 mW CPU,
	// so the thread runs ≈50 % of ticks.
	r := newRig()
	res := r.reserveWith("r", 0)
	tap, err := r.graph.NewTap(r.root, "t", label.Priv{}, r.graph.Battery(), res, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	if err := tap.SetRate(label.Priv{}, units.Microwatt*68500); err != nil {
		t.Fatal(err)
	}
	th := r.sched.NewThread(r.root, "spin", label.Public(), label.Priv{}, nil, res)
	for i := 0; i < 10000; i++ { // 10 s
		now := units.Time(i)
		if i%10 == 0 {
			r.graph.Flow(10 * units.Millisecond)
		}
		r.sched.Tick(now, units.Millisecond)
	}
	util := float64(th.TicksRun()) / 10000
	if util < 0.48 || util > 0.52 {
		t.Fatalf("utilization = %.3f, want ≈0.50", util)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// Two fully funded spinners share the CPU 50/50.
	r := newRig()
	a := r.sched.NewThread(r.root, "a", label.Public(), label.Priv{}, nil, r.reserveWith("ra", units.Joule))
	b := r.sched.NewThread(r.root, "b", label.Public(), label.Priv{}, nil, r.reserveWith("rb", units.Joule))
	r.run(0, 1000)
	if a.TicksRun() != 500 || b.TicksRun() != 500 {
		t.Fatalf("ticks = %d/%d, want 500/500", a.TicksRun(), b.TicksRun())
	}
}

func TestIsolationFromForks(t *testing.T) {
	// §6.1's core claim: B spawning children funded from B's own share
	// must not reduce A's share. A and B each get a 68.5 mW tap; B's
	// children get taps carved from B's reserve.
	r := newRig()
	mkTapped := func(name string, src *core.Reserve, rate units.Power) *core.Reserve {
		res := r.graph.NewReserve(r.root, name, label.Public(), core.ReserveOpts{})
		tap, err := r.graph.NewTap(r.root, name+"-tap", label.Priv{}, src, res, label.Public())
		if err != nil {
			t.Fatal(err)
		}
		if err := tap.SetRate(label.Priv{}, rate); err != nil {
			t.Fatal(err)
		}
		return res
	}
	ra := mkTapped("ra", r.graph.Battery(), units.Microwatt*68500)
	rb := mkTapped("rb", r.graph.Battery(), units.Microwatt*68500)
	a := r.sched.NewThread(r.root, "a", label.Public(), label.Priv{}, nil, ra)
	r.sched.NewThread(r.root, "b", label.Public(), label.Priv{}, nil, rb)

	tick := func(n int, start units.Time) {
		for i := 0; i < n; i++ {
			now := start + units.Time(i)
			if now%10 == 0 {
				r.graph.Flow(10 * units.Millisecond)
			}
			r.sched.Tick(now, units.Millisecond)
		}
	}
	tick(5000, 0)
	aBefore := a.CPUConsumed()

	// B "forks" two children, each drawing via a quarter-rate tap from
	// B's reserve (the Fig. 9 wiring).
	rb1 := mkTapped("rb1", rb, units.Microwatt*17125)
	rb2 := mkTapped("rb2", rb, units.Microwatt*17125)
	r.sched.NewThread(r.root, "b1", label.Public(), label.Priv{}, nil, rb1)
	r.sched.NewThread(r.root, "b2", label.Public(), label.Priv{}, nil, rb2)

	tick(5000, 5000)
	aDelta := a.CPUConsumed() - aBefore

	// A must keep its ~50 % share: 5 s × 68.5 mW ≈ 342.5 mJ.
	want := units.Energy(342500)
	if aDelta < want*95/100 || aDelta > want*105/100 {
		t.Fatalf("A consumed %v in second half, want ≈%v (isolation broken)", aDelta, want)
	}
}

func TestSleepAndWake(t *testing.T) {
	r := newRig()
	res := r.reserveWith("r", units.Joule)
	var th *Thread
	th = r.sched.NewThread(r.root, "sleeper", label.Public(), label.Priv{},
		RunnerFunc(func(now units.Time, t *Thread) {
			t.Sleep(now + 10*units.Millisecond)
		}), res)
	r.run(0, 100)
	// Runs 1 tick, sleeps 10 ms (9 idle ticks between runs with the
	// wake check at tick start), repeating: ≈10 runs in 100 ticks.
	if th.TicksRun() < 8 || th.TicksRun() > 12 {
		t.Fatalf("sleeper ran %d ticks, want ≈10", th.TicksRun())
	}
	if th.State() != Sleeping {
		t.Fatalf("state = %v, want sleeping", th.State())
	}
}

func TestBlockUntilWake(t *testing.T) {
	r := newRig()
	res := r.reserveWith("r", units.Joule)
	th := r.sched.NewThread(r.root, "blocked", label.Public(), label.Priv{}, nil, res)
	th.Block()
	r.run(0, 50)
	if th.TicksRun() != 0 {
		t.Fatal("blocked thread ran")
	}
	th.Wake()
	r.run(50, 50)
	if th.TicksRun() != 50 {
		t.Fatalf("woken thread ran %d ticks, want 50", th.TicksRun())
	}
}

func TestExitIsPermanent(t *testing.T) {
	r := newRig()
	res := r.reserveWith("r", units.Joule)
	th := r.sched.NewThread(r.root, "x", label.Public(), label.Priv{}, nil, res)
	th.Exit()
	th.Wake() // must not resurrect
	r.run(0, 10)
	if th.TicksRun() != 0 {
		t.Fatal("exited thread ran")
	}
	if th.State() != Exited {
		t.Fatalf("state = %v", th.State())
	}
}

func TestThreadDeletedViaContainer(t *testing.T) {
	r := newRig()
	c := kobj.NewContainer(r.tbl, r.root, label.Public())
	res := r.reserveWith("r", units.Joule)
	th := r.sched.NewThread(c, "t", label.Public(), label.Priv{}, nil, res)
	if err := r.tbl.Delete(c.ObjectID()); err != nil {
		t.Fatal(err)
	}
	r.run(0, 10)
	if th.TicksRun() != 0 {
		t.Fatal("deleted thread ran")
	}
}

func TestFallbackReserve(t *testing.T) {
	// A thread with two reserves drains the first, then the second
	// (§3.2: threads draw from one or more reserves).
	r := newRig()
	r1 := r.reserveWith("r1", 137*5*units.Microjoule) // 5 ticks
	r2 := r.reserveWith("r2", 137*5*units.Microjoule)
	th := r.sched.NewThread(r.root, "t", label.Public(), label.Priv{}, nil, r1, r2)
	r.run(0, 20)
	if th.TicksRun() != 10 {
		t.Fatalf("ticks = %d, want 10", th.TicksRun())
	}
	s1, _ := r1.Stats(label.Priv{})
	s2, _ := r2.Stats(label.Priv{})
	if s1.Consumed != s2.Consumed {
		t.Fatalf("reserve draw split %v/%v, want equal", s1.Consumed, s2.Consumed)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	r := newRig()
	res := r.reserveWith("r", 137*500*units.Microjoule) // 500 ticks
	r.sched.NewThread(r.root, "t", label.Public(), label.Priv{}, nil, res)
	r.run(0, 1000)
	if got := r.sched.Utilization(); got < 49 || got > 51 {
		t.Fatalf("Utilization = %.1f%%, want ≈50%%", got)
	}
	if r.sched.BusyTicks()+r.sched.IdleTicks() != 1000 {
		t.Fatal("busy+idle != total ticks")
	}
}
