package core

import (
	"errors"
	"testing"

	"repro/internal/label"
	"repro/internal/units"
)

func TestOperationsOnDeadReserve(t *testing.T) {
	g, root := testGraph(Config{DecayHalfLife: -1})
	r := g.NewReserve(root, "doomed", label.Public(), ReserveOpts{})
	if err := g.table.Delete(r.ObjectID()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Level(anyone); !errors.Is(err, ErrDead) {
		t.Errorf("Level on dead: %v", err)
	}
	if _, err := r.Stats(anyone); !errors.Is(err, ErrDead) {
		t.Errorf("Stats on dead: %v", err)
	}
	if err := r.Consume(anyone, 1); !errors.Is(err, ErrDead) {
		t.Errorf("Consume on dead: %v", err)
	}
	if err := r.DebitSelf(anyone, 1); !errors.Is(err, ErrDead) {
		t.Errorf("DebitSelf on dead: %v", err)
	}
	if r.CanConsume(anyone, 1) {
		t.Error("CanConsume on dead reserve")
	}
	// Transfers touching dead reserves fail.
	live := g.NewReserve(root, "live", label.Public(), ReserveOpts{})
	if err := g.Transfer(anyone, r, live, 0); !errors.Is(err, ErrDead) {
		t.Errorf("Transfer from dead: %v", err)
	}
	// New taps on dead reserves fail.
	if _, err := g.NewTap(root, "t", anyone, r, live, label.Public()); !errors.Is(err, ErrDead) {
		t.Errorf("NewTap on dead: %v", err)
	}
}

func TestOperationsOnDeadTap(t *testing.T) {
	g, root := testGraph(Config{DecayHalfLife: -1})
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	tap, err := g.NewTap(root, "t", anyone, g.Battery(), r, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.table.Delete(tap.ObjectID()); err != nil {
		t.Fatal(err)
	}
	if err := tap.SetRate(anyone, units.Watt); !errors.Is(err, ErrDead) {
		t.Errorf("SetRate on dead: %v", err)
	}
	if err := tap.SetFrac(anyone, 1000); !errors.Is(err, ErrDead) {
		t.Errorf("SetFrac on dead: %v", err)
	}
}

func TestTapValidationErrors(t *testing.T) {
	g, root := testGraph(Config{DecayHalfLife: -1})
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	tap, err := g.NewTap(root, "t", anyone, g.Battery(), r, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	if err := tap.SetRate(anyone, -1); err == nil {
		t.Error("negative rate accepted")
	}
	if err := tap.SetFrac(anyone, -1); err == nil {
		t.Error("negative fraction accepted")
	}
	if err := tap.SetFrac(anyone, 1_000_001); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := g.NewTap(root, "nil", anyone, nil, r, label.Public()); err == nil {
		t.Error("nil source accepted")
	}
}

func TestNegativePanics(t *testing.T) {
	g, root := testGraph(Config{DecayHalfLife: -1})
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	for name, fn := range map[string]func(){
		"consume":  func() { _ = r.Consume(anyone, -1) },
		"debit":    func() { _ = r.DebitSelf(anyone, -1) },
		"transfer": func() { _ = g.Transfer(anyone, g.Battery(), r, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: negative amount accepted", name)
				}
			}()
			fn()
		}()
	}
}

func TestAccessorsAndSnapshots(t *testing.T) {
	g, root := testGraph(Config{BatteryCapacity: units.Kilojoule, DecayHalfLife: -1})
	if g.Capacity() != units.Kilojoule {
		t.Error("Capacity")
	}
	if g.HalfLife() != -1 {
		t.Error("HalfLife")
	}
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	tap, _ := g.NewTap(root, "t", anyone, g.Battery(), r, label.Public())
	if tap.Kind() != TapConst {
		t.Fatal("default tap kind")
	}
}

func TestFlowZeroAndNegativeDt(t *testing.T) {
	g, root := testGraph(Config{DecayHalfLife: -1})
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	tap, _ := g.NewTap(root, "t", anyone, g.Battery(), r, label.Public())
	if err := tap.SetRate(anyone, units.Watt); err != nil {
		t.Fatal(err)
	}
	g.Flow(0)
	g.Flow(-5)
	if lvl, _ := r.Level(anyone); lvl != 0 {
		t.Fatalf("zero-dt flow moved %v", lvl)
	}
	g.Decay(0)
	g.Decay(-1)
}
