package core

import (
	"testing"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// FuzzGraphConservation drives a small operation program decoded from
// fuzz bytes against a graph and asserts exact conservation and
// non-negativity after every step — the invariant the whole
// reproduction stands on.
func FuzzGraphConservation(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 1, 1, 4, 4, 5, 2, 2, 3, 6})
	f.Add([]byte{2, 9, 0, 255, 7, 7, 7})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 256 {
			program = program[:256]
		}
		tbl := kobj.NewTable()
		root := kobj.NewContainer(tbl, nil, label.Public())
		g := NewGraph(tbl, root, label.Public(), Config{
			BatteryCapacity: units.Kilojoule,
		})
		reserves := []*Reserve{g.Battery()}
		var taps []*Tap
		pick := func(i int, n int) int {
			if n == 0 {
				return 0
			}
			return i % n
		}
		for pc := 0; pc < len(program); pc++ {
			op := program[pc]
			arg := int(op) * 131 // derived operand
			switch op % 7 {
			case 0:
				reserves = append(reserves, g.NewReserve(root, "r", label.Public(), ReserveOpts{}))
			case 1:
				if len(reserves) < 2 {
					continue
				}
				src := reserves[pick(arg, len(reserves))]
				sink := reserves[pick(arg/2+1, len(reserves))]
				if src == sink || src.Dead() || sink.Dead() {
					continue
				}
				tap, err := g.NewTap(root, "t", label.Priv{}, src, sink, label.Public())
				if err != nil {
					t.Fatal(err)
				}
				if op%2 == 0 {
					_ = tap.SetRate(label.Priv{}, units.Power(arg)*units.Milliwatt)
				} else {
					_ = tap.SetFrac(label.Priv{}, PPM(arg*37%1_000_000))
				}
				taps = append(taps, tap)
			case 2:
				src := reserves[pick(arg, len(reserves))]
				sink := reserves[pick(arg/3+2, len(reserves))]
				if src == sink || src.Dead() || sink.Dead() {
					continue
				}
				if _, err := g.TransferUpTo(label.Priv{}, src, sink, units.Energy(arg)*units.Millijoule); err != nil {
					t.Fatal(err)
				}
			case 3:
				r := reserves[pick(arg, len(reserves))]
				if r.Dead() {
					continue
				}
				_ = r.Consume(label.Priv{}, units.Energy(arg)*units.Microjoule)
			case 4:
				g.Flow(units.Time(op%50) + 1)
			case 5:
				g.Decay(units.Time(op%3)*units.Second + units.Second)
			case 6:
				if len(taps) == 0 {
					continue
				}
				tap := taps[pick(arg, len(taps))]
				if !tap.dead {
					_ = tbl.Delete(tap.ObjectID())
				}
			}
			if ce := g.ConservationError(); ce != 0 {
				t.Fatalf("pc %d (op %d): conservation error %v", pc, op, ce)
			}
			for _, r := range g.reserves {
				if lvl, err := r.Level(label.Priv{}); err == nil && lvl < 0 {
					t.Fatalf("pc %d: negative reserve %q: %v", pc, r.name, lvl)
				}
			}
		}
	})
}
