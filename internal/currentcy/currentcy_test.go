package currentcy

import (
	"errors"
	"testing"

	"repro/internal/units"
)

func TestAllocationProportionalToShares(t *testing.T) {
	s := New(units.Milliwatts(100), units.Second)
	a := s.AddTask("a", 3, units.Kilojoule)
	b := s.AddTask("b", 1, units.Kilojoule)
	for i := 0; i < 10; i++ {
		s.Allocate()
	}
	// 100 mW × 10 s = 1 J split 3:1.
	if a.balance != 750*units.Millijoule {
		t.Fatalf("a = %v, want 750 mJ", a.balance)
	}
	if b.balance != 250*units.Millijoule {
		t.Fatalf("b = %v, want 250 mJ", b.balance)
	}
}

func TestSpendAndDenial(t *testing.T) {
	s := New(units.Milliwatts(100), units.Second)
	a := s.AddTask("a", 1, units.Kilojoule)
	s.Allocate() // 100 mJ
	if err := a.Spend(60 * units.Millijoule); err != nil {
		t.Fatal(err)
	}
	if a.balance != 40*units.Millijoule {
		t.Fatalf("balance after spending 60 of 100 mJ = %v", a.balance)
	}
	err := a.Spend(60 * units.Millijoule)
	if !errors.Is(err, ErrBroke) {
		t.Fatalf("overspend err = %v", err)
	}
	if a.balance != 40*units.Millijoule {
		t.Fatalf("denied spend moved the balance to %v", a.balance)
	}
	if a.CanSpend(50 * units.Millijoule) {
		t.Fatal("CanSpend over balance")
	}
	if !a.CanSpend(40 * units.Millijoule) {
		t.Fatal("CanSpend under balance refused")
	}
}

func TestCapBoundsAccumulation(t *testing.T) {
	s := New(units.Milliwatts(100), units.Second)
	a := s.AddTask("a", 1, 250*units.Millijoule)
	for i := 0; i < 100; i++ {
		s.Allocate() // 10 J offered, cap 250 mJ
	}
	if a.balance != 250*units.Millijoule {
		t.Fatalf("balance = %v, want cap", a.balance)
	}
}

func TestNoSubdivision(t *testing.T) {
	// The §2.3 browser/plugin problem: both run in one task, so an
	// aggressive plugin drains the shared balance and the browser's own
	// spends are denied. (Contrast core's TestBrowserPluginIsolation.)
	s := New(units.Milliwatts(690), units.Second)
	browserTask := s.AddTask("browser+plugin", 1, units.Kilojoule)
	var browserDenied int
	for epoch := 0; epoch < 30; epoch++ {
		s.Allocate()
		// Plugin greedily burns everything available each epoch.
		for browserTask.CanSpend(10 * units.Millijoule) {
			if err := browserTask.Spend(10 * units.Millijoule); err != nil {
				break
			}
		}
		// Browser then tries to do its own work.
		if err := browserTask.Spend(50 * units.Millijoule); err != nil {
			browserDenied++
		}
	}
	if browserDenied < 25 {
		t.Fatalf("browser denied only %d/30 epochs — plugin failed to starve it?!", browserDenied)
	}
}

func TestNoDelegation(t *testing.T) {
	// The §2.3 radio problem: two tasks each funded at half the
	// activation cost per interval can never afford the 9.5 J power-up,
	// because currentcy has no transfer primitive. (Contrast netd's
	// TestCooperativePoolingSynchronizesApps.)
	activation := units.Joules(9.5)
	s := New(units.Milliwatts(158), units.Second) // jointly enough per minute
	mail := s.AddTask("mail", 1, activation)      // cap even lets them save a full activation
	rss := s.AddTask("rss", 1, activation)
	activations := 0
	for epoch := 0; epoch < 20*60; epoch++ { // 20 minutes of 1 s epochs
		s.Allocate()
		for _, task := range []*Task{mail, rss} {
			if task.CanSpend(activation) {
				if err := task.Spend(activation); err == nil {
					activations++
				}
			}
		}
	}
	// Each task alone accumulates 79 mW: one activation per ≈120 s —
	// at MOST 10 activations each in 20 min, and crucially they can
	// never merge: pooled Cinder gets ≈20 synchronized activations for
	// the same total budget serving both apps at once.
	if activations > 20 {
		t.Fatalf("activations = %d: currentcy should not beat pooling", activations)
	}
	if activations == 0 {
		t.Fatal("tasks never saved enough individually (cap mis-set)")
	}
	// The structural point: there is no operation to move balance
	// between mail and rss at all — the type has no transfer method.
}

func TestAllocatedAccounting(t *testing.T) {
	s := New(units.Watt, units.Second)
	a := s.AddTask("a", 1, units.Kilojoule)
	s.Allocate()
	s.Allocate()
	if a.balance != 2*units.Joule {
		t.Fatalf("balance after two 1 J epochs = %v", a.balance)
	}
}

func TestZeroTaskAllocateNoop(t *testing.T) {
	s := New(units.Watt, units.Second)
	s.Allocate()
	// The empty epoch neither paid anyone nor banked a carry: a task
	// added afterwards holds only what the next epoch allocates.
	a := s.AddTask("a", 1, units.Kilojoule)
	if a.balance != 0 {
		t.Fatalf("new task starts with %v", a.balance)
	}
	s.Allocate()
	if a.balance != units.Joule {
		t.Fatalf("balance after one 1 J epoch = %v", a.balance)
	}
}
