package radio

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/units"
)

// spanFrom is the first tick instant of every settled span below.
const spanFrom = 1000 * units.Millisecond

// spanRadio builds a radio mid-episode: in Ramp until from+edge, or in
// Active with its idle deadline at from+edge, holding the given plateau
// scale and billing carry. The graph's battery holds battery and the
// funding reserve holds fund.
func spanRadio(tb testing.TB, active bool, edge units.Time, scale, carry int64, fund, battery units.Energy) *Radio {
	tb.Helper()
	eng := sim.NewEngineMode(42, sim.ModeNextEvent)
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, label.Public())
	g := core.NewGraph(tbl, root, label.Public(), core.Config{BatteryCapacity: fund + battery, DecayHalfLife: -1})
	r := New(eng, g, root, label.Priv{}, Config{Profile: power.Dream()})
	if fund > 0 {
		if err := g.Transfer(label.Priv{}, g.Battery(), r.fund, fund); err != nil {
			tb.Fatal(err)
		}
	}
	if active {
		r.transition(0, Active)
		r.lastActivity = spanFrom + edge - r.profile.RadioIdleTimeout
	} else {
		r.transition(0, Ramp)
		r.rampEnd = spanFrom + edge
		r.lastActivity = r.rampEnd
	}
	r.plateauScale = scale
	r.carry = carry
	return r
}

// radioState serializes everything a span can change: the radio's own
// snapshot and its graph's, which holds every reserve level and
// accounting record.
func radioState(tb testing.TB, r *Radio) []byte {
	tb.Helper()
	b, err := snap.Save(func(c *snap.Codec) {
		r.Codec(c)
		r.graph.Codec(c)
	})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// plateauCum is the cumulative plateau energy a per-tick run bills over
// j one-millisecond ticks at the given scale and starting carry.
func plateauCum(j, scale, carry int64) units.Energy {
	x := int64(power.Dream().RadioActiveExtra) * scale / 1024 * int64(units.Millisecond)
	return units.Energy((x*j + carry) / 1000)
}

// FuzzRadioSettleSpan checks SettleTicks against the per-tick run it
// replaces: twin radios start from the same mid-episode state, one
// takes n DeviceTick calls and the other one SettleTicks over the same
// instants. The fund level, battery level, carry, span length, plateau
// scale and the instant of the next state change all vary, so spans
// cover the fund as a whole, the fund spilling to the battery at every
// possible tick, and a battery too small for the remainder.
func FuzzRadioSettleSpan(f *testing.F) {
	const scale, carry, n = 1000, 500, 20_000
	const edge = uint32(n + 5) // plateau outlasts the span
	// fund 0: every tick bills the battery.
	f.Add(uint32(0), uint32(10_000_000), uint16(carry), uint16(n), uint16(scale), true, edge)
	// fund exactly cum(j): tick j drains it, tick j+1 bills the battery alone.
	f.Add(uint32(plateauCum(7_000, scale, carry)), uint32(10_000_000), uint16(carry), uint16(n), uint16(scale), true, edge)
	// fund one µJ below cum(j): tick j splits between fund and battery.
	f.Add(uint32(plateauCum(7_000, scale, carry)-1), uint32(10_000_000), uint16(carry), uint16(n), uint16(scale), true, edge)
	// fund covering the whole span.
	f.Add(uint32(20_000_000), uint32(1), uint16(carry), uint16(n), uint16(scale), true, edge)
	// A battery too small for the remainder: the per-tick fallback, whose
	// later Consume calls fail one by one.
	f.Add(uint32(plateauCum(100, scale, carry)), uint32(1_000), uint16(carry), uint16(n), uint16(scale), true, edge)
	// Ramp into the plateau and on to sleep inside one span.
	f.Add(uint32(3_000_000), uint32(10_000_000), uint16(0), uint16(30_000), uint16(1300), false, uint32(1_500))
	f.Fuzz(func(t *testing.T, fundUJ, batteryUJ uint32, carryIn, nIn, scaleIn uint16, active bool, edgeIn uint32) {
		fund, battery := units.Energy(fundUJ), units.Energy(batteryUJ)+1
		carry := int64(carryIn) % 1000
		n := int64(nIn) + 1
		scale := int64(scaleIn) % 2048
		edge := units.Time(int64(edgeIn) % (n + 2_000))
		dt := units.Millisecond
		to := spanFrom + units.Time(n-1)*dt

		ticked := spanRadio(t, active, edge, scale, carry, fund, battery)
		for now := spanFrom; now <= to; now += dt {
			ticked.DeviceTick(now, dt)
		}
		settled := spanRadio(t, active, edge, scale, carry, fund, battery)
		settled.SettleTicks(spanFrom, to, dt)

		if a, b := radioState(t, ticked), radioState(t, settled); !bytes.Equal(a, b) {
			t.Errorf("snapshots differ:\n  per-tick: %+v carry=%d\n  settled:  %+v carry=%d",
				ticked.Stats(), ticked.carry, settled.Stats(), settled.carry)
		}
		for _, acct := range []struct {
			name   string
			tr, sr *core.Reserve
		}{
			{"fund", ticked.fund, settled.fund},
			{"battery", ticked.graph.Battery(), settled.graph.Battery()},
		} {
			ta, _ := acct.tr.Stats(label.Priv{})
			sa, _ := acct.sr.Stats(label.Priv{})
			if ta != sa {
				t.Errorf("%s accounting: per-tick %+v, settled %+v", acct.name, ta, sa)
			}
		}
		if a, b := ticked.graph.Consumed(), settled.graph.Consumed(); a != b {
			t.Errorf("graph consumed: per-tick %v, settled %v", a, b)
		}
		if e := settled.graph.ConservationError(); e != 0 {
			t.Errorf("conservation error %v after settlement", e)
		}
	})
}

// BenchmarkSteadyRadioSpill: closed-form settlement of a 20 s plateau
// whose fund covers less than one second of its draw, the common case
// of a netd-funded activation; CI-guarded to 0 B/op.
func BenchmarkSteadyRadioSpill(b *testing.B) {
	const n = 20_000
	dt := units.Millisecond
	fund := power.Dream().RadioActiveExtra.Over(units.Second) / 2
	r := spanRadio(b, true, n*dt, 1024, 0, 0, power.Dream().BatteryCapacity)
	g := r.graph
	to := spanFrom + (n-1)*dt
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ChargeBattery(units.MaxEnergy)
		if err := g.Transfer(label.Priv{}, g.Battery(), r.fund, fund); err != nil {
			b.Fatal(err)
		}
		r.carry = 0
		r.SettleTicks(spanFrom, to, dt)
	}
}
