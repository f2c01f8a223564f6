package core

import (
	"math/rand"
	"testing"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// TestPropertyConservation drives random operation sequences against a
// graph and checks the DESIGN.md §5 invariants after every step:
// conservation is exact, no ordinary reserve goes negative, and tap flow
// never exceeds its entitlement.
func TestPropertyConservation(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		tbl := kobj.NewTable()
		root := kobj.NewContainer(tbl, nil, label.Public())
		g := NewGraph(tbl, root, label.Public(), Config{
			BatteryCapacity: 15 * units.Kilojoule,
		})

		reserves := []*Reserve{g.Battery()}
		var taps []*Tap
		for step := 0; step < 400; step++ {
			switch r.Intn(8) {
			case 0: // create reserve
				res := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
				reserves = append(reserves, res)
			case 1: // create tap with random rate
				if len(reserves) < 2 {
					continue
				}
				src := reserves[r.Intn(len(reserves))]
				sink := reserves[r.Intn(len(reserves))]
				if src == sink || src.Dead() || sink.Dead() {
					continue
				}
				tap, err := g.NewTap(root, "t", label.Priv{}, src, sink, label.Public())
				if err != nil {
					t.Fatal(err)
				}
				if r.Intn(2) == 0 {
					if err := tap.SetRate(label.Priv{}, units.Power(r.Int63n(2_000_000))); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := tap.SetFrac(label.Priv{}, PPM(r.Int63n(500_000))); err != nil {
						t.Fatal(err)
					}
				}
				taps = append(taps, tap)
			case 2: // transfer
				src := reserves[r.Intn(len(reserves))]
				sink := reserves[r.Intn(len(reserves))]
				if src == sink || src.Dead() || sink.Dead() {
					continue
				}
				_, err := g.TransferUpTo(label.Priv{}, src, sink, units.Energy(r.Int63n(int64(units.Joule))))
				if err != nil {
					t.Fatal(err)
				}
			case 3: // consume
				res := reserves[r.Intn(len(reserves))]
				if res.Dead() {
					continue
				}
				amt := units.Energy(r.Int63n(int64(100 * units.Millijoule)))
				err := res.Consume(label.Priv{}, amt)
				if err != nil && !res.CanConsume(label.Priv{}, amt) {
					// expected failure
				} else if err != nil {
					t.Fatalf("consume failed unexpectedly: %v", err)
				}
			case 4: // flow
				g.Flow(units.Time(r.Intn(100)+1) * units.Millisecond)
			case 5: // decay
				g.Decay(units.Time(r.Intn(5)+1) * units.Second)
			case 6: // delete a random non-battery reserve
				if len(reserves) < 2 {
					continue
				}
				res := reserves[1+r.Intn(len(reserves)-1)]
				if res.Dead() {
					continue
				}
				if err := tbl.Delete(res.ObjectID()); err != nil {
					t.Fatal(err)
				}
			case 7: // delete a random tap
				if len(taps) == 0 {
					continue
				}
				tap := taps[r.Intn(len(taps))]
				if tap.dead {
					continue
				}
				if err := tbl.Delete(tap.ObjectID()); err != nil {
					t.Fatal(err)
				}
			}

			if ce := g.ConservationError(); ce != 0 {
				t.Fatalf("trial %d step %d: conservation error %v", trial, step, ce)
			}
			for _, res := range g.reserves {
				if lvl, err := res.Level(label.Priv{}); err == nil && lvl < 0 {
					t.Fatalf("trial %d step %d: reserve %q negative: %v",
						trial, step, res.name, lvl)
				}
			}
		}
	}
}

// TestPropertyConstTapNeverExceedsRate flows a tap for random batch
// sizes and checks cumulative movement never exceeds rate × elapsed
// (plus one microjoule of carry rounding).
func TestPropertyConstTapNeverExceedsRate(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		g, root := testGraph(Config{DecayHalfLife: -1})
		res := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
		tap, _ := g.NewTap(root, "t", label.Priv{}, g.Battery(), res, label.Public())
		rate := units.Power(r.Int63n(int64(units.Watt)) + 1)
		if err := tap.SetRate(label.Priv{}, rate); err != nil {
			t.Fatal(err)
		}
		var elapsed units.Time
		for i := 0; i < 200; i++ {
			dt := units.Time(r.Intn(50) + 1)
			g.Flow(dt)
			elapsed += dt
			entitled := rate.Over(elapsed) + 1
			if tap.Stats().Moved > entitled {
				t.Fatalf("trial %d: moved %v > entitled %v after %v",
					trial, tap.Stats().Moved, entitled, elapsed)
			}
		}
	}
}

// TestPropertyProportionalTapBounded checks a proportional tap moves at
// most frac × level × dt for a single batch, and that repeated flows
// decay the source geometrically (never negative, monotone down).
func TestPropertyProportionalTapBounded(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		g, root := testGraph(Config{DecayHalfLife: -1})
		src := g.NewReserve(root, "src", label.Public(), ReserveOpts{})
		if err := g.Transfer(label.Priv{}, g.Battery(), src, units.Energy(r.Int63n(int64(units.Joule))+1)); err != nil {
			t.Fatal(err)
		}
		tap, _ := g.NewTap(root, "t", label.Priv{}, src, g.Battery(), label.Public())
		frac := PPM(r.Int63n(900_000) + 1)
		if err := tap.SetFrac(label.Priv{}, frac); err != nil {
			t.Fatal(err)
		}
		prev, _ := src.Level(label.Priv{})
		for i := 0; i < 100; i++ {
			g.Flow(100 * units.Millisecond)
			lvl, _ := src.Level(label.Priv{})
			if lvl < 0 {
				t.Fatalf("trial %d: source negative %v", trial, lvl)
			}
			if lvl > prev {
				t.Fatalf("trial %d: source grew %v → %v with only a drain", trial, prev, lvl)
			}
			prev = lvl
		}
	}
}
