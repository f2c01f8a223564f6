package radio

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestIdleDeadline(t *testing.T) {
	r := newRig(Config{})
	r.eng.After(units.Second, func(e *sim.Engine) {
		r.radio.Send(e.Now(), 1, nil, label.Priv{})
	})
	r.eng.Run(5 * units.Second)
	// Last activity at ramp end (3 s); the radio sleeps RadioIdleTimeout
	// after it.
	if r.radio.state == Sleep || r.radio.lastActivity != 3*units.Second {
		t.Fatalf("state %v, last activity %v; want awake since 3 s", r.radio.state, r.radio.lastActivity)
	}
}

func TestNetworkInitiatedWakeup(t *testing.T) {
	// An inbound packet (paging) wakes a sleeping radio; the idle timer
	// starts from delivery.
	r := newRig(Config{})
	r.eng.After(units.Second, func(e *sim.Engine) {
		r.radio.Deliver(e.Now(), 500, nil, label.Priv{})
	})
	r.eng.Run(2 * units.Second)
	if r.radio.State() == Sleep {
		t.Fatal("inbound packet did not wake the radio")
	}
	if got, want := r.radio.Stats().DataEnergy, r.radio.profile.PacketEnergy(500); got != want {
		t.Fatalf("delivery billed %v, want one 500 B packet's %v", got, want)
	}
	r.eng.Run(30 * units.Second)
	if r.radio.State() != Sleep {
		t.Fatal("radio did not sleep after inbound-only activity")
	}
}

func TestSendDuringRampQueuesAtRampEnd(t *testing.T) {
	r := newRig(Config{})
	var tx1, tx2 units.Time
	r.eng.After(units.Second, func(e *sim.Engine) {
		tx1 = r.radio.Send(e.Now(), 100, nil, label.Priv{})
	})
	// Second send mid-ramp (ramp is 2 s).
	r.eng.After(2*units.Second, func(e *sim.Engine) {
		tx2 = r.radio.Send(e.Now(), 100, nil, label.Priv{})
	})
	r.eng.Run(5 * units.Second)
	if tx2 < tx1 {
		t.Fatalf("mid-ramp send transmitted before the first: %v < %v", tx2, tx1)
	}
	// Both transmit at/after ramp end (3 s).
	if tx1 < 3*units.Second || tx2 < 3*units.Second {
		t.Fatalf("transmissions before ramp end: %v, %v", tx1, tx2)
	}
	if r.radio.Stats().Activations != 1 {
		t.Fatalf("activations = %d, want 1", r.radio.Stats().Activations)
	}
}

func TestBillDataFallsBackWhenReserveCannotPay(t *testing.T) {
	// A bill reserve that forbids debt and holds nothing: the cost falls
	// through to the battery, never lost.
	r := newRig(Config{})
	root := kobj.NewContainer(r.tbl, nil, label.Public())
	broke := r.graph.NewReserve(root, "broke", label.Public(), core.ReserveOpts{})
	before, _ := r.graph.Battery().Level(label.Priv{})
	r.eng.After(units.Second, func(e *sim.Engine) {
		r.radio.Send(e.Now(), 1500, broke, label.Priv{})
	})
	r.eng.Run(2 * units.Second)
	lvl, _ := broke.Level(label.Priv{})
	if lvl != 0 {
		t.Fatalf("broke reserve level = %v", lvl)
	}
	after, _ := r.graph.Battery().Level(label.Priv{})
	if after >= before {
		t.Fatal("data cost vanished instead of hitting the battery")
	}
	if r.graph.ConservationError() != 0 {
		t.Fatalf("conservation error %v", r.graph.ConservationError())
	}
}

func TestRTTAccessorAndDefault(t *testing.T) {
	r := newRig(Config{})
	if r.radio.rtt != 200*units.Millisecond {
		t.Fatalf("default RTT = %v", r.radio.rtt)
	}
	r2 := newRig(Config{RTT: units.Second})
	if r2.radio.rtt != units.Second {
		t.Fatalf("configured RTT = %v", r2.radio.rtt)
	}
}

func TestEpisodeCallback(t *testing.T) {
	r := newRig(Config{})
	var episodes []units.Energy
	r.radio.OnEpisode(func(cost units.Energy) { episodes = append(episodes, cost) })
	for i := 0; i < 3; i++ {
		at := units.Second + units.Time(i)*40*units.Second
		r.eng.At(at, func(e *sim.Engine) {
			r.radio.Send(e.Now(), 1, nil, label.Priv{})
		})
	}
	r.eng.Run(120 * units.Second)
	if len(episodes) != 3 {
		t.Fatalf("episodes = %d, want 3", len(episodes))
	}
	for i, e := range episodes {
		if e < units.Joules(9) || e > units.Joules(10) {
			t.Fatalf("episode %d cost %v, want ≈9.5 J", i, e)
		}
	}
}

func TestFundPartialThenBattery(t *testing.T) {
	// A fund holding less than one activation is drained first, the
	// battery covers the rest.
	r := newRig(Config{})
	fund := r.radio.FundingReserve()
	if err := r.graph.Transfer(label.Priv{}, r.graph.Battery(), fund, 3*units.Joule); err != nil {
		t.Fatal(err)
	}
	r.eng.After(units.Second, func(e *sim.Engine) {
		r.radio.Send(e.Now(), 1, nil, label.Priv{})
	})
	r.eng.Run(30 * units.Second)
	if lvl, _ := fund.Level(label.Priv{}); lvl != 0 {
		t.Fatalf("fund = %v after underfunded activation", lvl)
	}
	st := r.radio.Stats()
	if st.StateEnergy < units.Joules(9) {
		t.Fatalf("state energy = %v", st.StateEnergy)
	}
	if r.graph.ConservationError() != 0 {
		t.Fatalf("conservation error %v", r.graph.ConservationError())
	}
}
