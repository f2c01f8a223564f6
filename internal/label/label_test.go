package label

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPublicLabelObservableByZeroPriv(t *testing.T) {
	var p Priv
	l := Public()
	if !p.CanObserve(l) {
		t.Error("zero priv cannot observe public label")
	}
	if !p.CanModify(l) {
		t.Error("zero priv cannot modify public label")
	}
	if !p.CanUse(l) {
		t.Error("zero priv cannot use public label")
	}
}

func TestElevatedCategoryRequiresOwnership(t *testing.T) {
	const c Category = 7
	protected := Public().With(c, Level2)

	var stranger Priv
	if stranger.CanModify(protected) {
		t.Error("stranger can modify protected object")
	}
	// Level2 exceeds default clearance Level1, so even observation fails.
	if stranger.CanObserve(protected) {
		t.Error("stranger can observe Level2-protected object")
	}

	owner := NewPriv(c)
	if !owner.CanObserve(protected) || !owner.CanModify(protected) {
		t.Error("owner lacks rights on own category")
	}

	// High clearance grants observation but not modification.
	reader := Priv{}.WithClearance(Level3)
	if !reader.CanObserve(protected) {
		t.Error("Level3 clearance cannot observe Level2 object")
	}
	if reader.CanModify(protected) {
		t.Error("non-owner with high clearance can modify protected object")
	}
}

func TestLoweredCategoryStillModifiable(t *testing.T) {
	// A category *below* the default does not protect modification; it
	// only affects observation thresholds (which default clearance
	// passes).
	l := Public().With(3, Level0)
	var p Priv
	if !p.CanModify(l) {
		t.Error("lowered category blocked modification")
	}
}

func TestUnobservableDefault(t *testing.T) {
	secret := New(Level3, nil)
	var p Priv
	if p.CanObserve(secret) {
		t.Error("default-clearance thread observes Level3-default label")
	}
	high := Priv{}.WithClearance(Level3)
	if !high.CanObserve(secret) {
		t.Error("Level3 clearance cannot observe Level3 default")
	}
}

func TestCanUseIsObserveAndModify(t *testing.T) {
	const c Category = 9
	l := Public().With(c, Level2)
	cases := []struct {
		p    Priv
		want bool
	}{
		{NewPriv(c), true},
		{Priv{}, false},
		{Priv{}.WithClearance(Level3), false}, // observe but not modify
	}
	for i, tc := range cases {
		if got := tc.p.CanUse(l); got != tc.want {
			t.Errorf("case %d: CanUse = %v, want %v", i, got, tc.want)
		}
	}
}

func TestNewNormalizesRedundantEntries(t *testing.T) {
	a := New(Level1, map[Category]Level{4: Level1, 5: Level2})
	b := New(Level1, map[Category]Level{5: Level2})
	if !a.Equal(b) {
		t.Errorf("labels not equal after normalization: %v vs %v", a, b)
	}
	if got := a.Level(4); got != Level1 {
		t.Errorf("Level(4) = %d, want default", got)
	}
	if got := a.Level(5); got != Level2 {
		t.Errorf("Level(5) = %d, want 2", got)
	}
}

func TestWithDoesNotMutate(t *testing.T) {
	orig := Public()
	mod := orig.With(1, Level3)
	if orig.Level(1) != DefaultLevel {
		t.Error("With mutated the receiver")
	}
	if mod.Level(1) != Level3 {
		t.Error("With did not apply")
	}
}

func TestStarPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"default": func() { New(Star, nil) },
		"entry":   func() { New(Level1, map[Category]Level{1: Star}) },
		"with":    func() { Public().With(1, Star) },
		"clear":   func() { Priv{}.WithClearance(Star) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Star accepted", name)
				}
			}()
			fn()
		}()
	}
}

func TestPrivUnion(t *testing.T) {
	a := NewPriv(1, 2)
	b := NewPriv(3).WithClearance(Level2)
	u := a.Union(b)
	for _, c := range []Category{1, 2, 3} {
		if !u.Owns(c) {
			t.Errorf("union does not own c%d", c)
		}
	}
	if u.Clearance() != Level2 {
		t.Errorf("union clearance = %d, want 2", u.Clearance())
	}
	// Union must not mutate operands.
	if a.Owns(3) || b.Owns(1) {
		t.Error("Union mutated an operand")
	}
}

func TestUnionGrantsCombinedRights(t *testing.T) {
	// A tap with embedded privileges (§3.5): the tap owns the sink's
	// category, the caller owns the source's. Union can use both.
	const src, sink Category = 10, 11
	srcLabel := Public().With(src, Level2)
	sinkLabel := Public().With(sink, Level2)
	caller := NewPriv(src)
	embedded := NewPriv(sink)
	combined := caller.Union(embedded)
	if !combined.CanUse(srcLabel) || !combined.CanUse(sinkLabel) {
		t.Error("combined privileges cannot use both reserves")
	}
	if caller.CanUse(sinkLabel) {
		t.Error("caller alone can use sink")
	}
}

// TestOwnedSorted: NewPriv keeps the owned categories sorted, which
// Owns' early exit relies on.
func TestOwnedSorted(t *testing.T) {
	p := NewPriv(9, 1, 5)
	want := []Category{1, 5, 9}
	if !reflect.DeepEqual(p.owned, want) {
		t.Errorf("owned = %v, want %v", p.owned, want)
	}
}

// randomLabel builds an arbitrary label from fuzz input.
func randomLabel(r *rand.Rand) Label {
	def := Level(r.Intn(4))
	n := r.Intn(4)
	m := make(map[Category]Level, n)
	for i := 0; i < n; i++ {
		m[Category(r.Intn(8)+1)] = Level(r.Intn(4))
	}
	return New(def, m)
}

func randomPriv(r *rand.Rand) Priv {
	p := Priv{}.WithClearance(Level(r.Intn(4)))
	n := r.Intn(3)
	for i := 0; i < n; i++ {
		p = p.WithOwned(Category(r.Intn(8) + 1))
	}
	return p
}

func TestPropertyModifyImpliesObserve(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		l := randomLabel(r)
		p := randomPriv(r)
		if p.CanModify(l) && !p.CanObserve(l) {
			t.Fatalf("CanModify without CanObserve: %v on %v", p, l)
		}
		if p.CanUse(l) != (p.CanObserve(l) && p.CanModify(l)) {
			t.Fatalf("CanUse inconsistent: %v on %v", p, l)
		}
	}
}

func TestPropertyUnionMonotone(t *testing.T) {
	// Union never removes a right either operand had.
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		l := randomLabel(r)
		a, b := randomPriv(r), randomPriv(r)
		u := a.Union(b)
		if (a.CanObserve(l) || b.CanObserve(l)) && !u.CanObserve(l) {
			t.Fatalf("union lost observe right: %v ∪ %v on %v", a, b, l)
		}
		if (a.CanModify(l) || b.CanModify(l)) && !u.CanModify(l) {
			t.Fatalf("union lost modify right: %v ∪ %v on %v", a, b, l)
		}
	}
}

func TestPropertyEqualReflexiveSymmetric(t *testing.T) {
	f := func(defA, defB uint8, c1, c2 uint16, l1, l2 uint8) bool {
		a := New(Level(defA%4), map[Category]Level{
			Category(c1%8 + 1): Level(l1 % 4),
		})
		b := New(Level(defB%4), map[Category]Level{
			Category(c2%8 + 1): Level(l2 % 4),
		})
		return a.Equal(a) && b.Equal(b) && a.Equal(b) == b.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyHigherClearanceObservesMore(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		l := randomLabel(r)
		low := Priv{}.WithClearance(Level(r.Intn(3)))
		high := low.WithClearance(Level3)
		if low.CanObserve(l) && !high.CanObserve(l) {
			t.Fatalf("raising clearance lost observe right on %v", l)
		}
	}
}

func TestWithRemovalNormalizesToNil(t *testing.T) {
	l := New(DefaultLevel, map[Category]Level{7: Level2})
	back := l.With(7, DefaultLevel)
	if !back.Equal(Public()) {
		t.Fatal("removing the only exception did not restore the public label")
	}
	if !reflect.DeepEqual(back, Public()) {
		t.Fatal("exception-free label is not in the normalized (nil-entries) form")
	}
}
