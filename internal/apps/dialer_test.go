package apps

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/label"
	"repro/internal/msm"
	"repro/internal/units"
)

func dialerRig(t *testing.T, battery units.Energy) (*kernel.Kernel, *msm.Smdd) {
	t.Helper()
	k := kernel.New(kernel.Config{Seed: 19, DecayHalfLife: -1, BatteryCapacity: battery})
	d, err := msm.NewSmdd(k, msm.DefaultSmddConfig(), msm.DefaultARM9Config())
	if err != nil {
		t.Fatal(err)
	}
	return k, d
}

func TestDialerPlacesAndEndsCall(t *testing.T) {
	k, smdd := dialerRig(t, 15*units.Kilojoule)
	d, err := NewDialer(k, k.Root, k.KernelPriv(), k.Battery(), DialerConfig{
		Number:        "+15551234567",
		Duration:      20 * units.Second,
		Rate:          units.Watt, // generously funded
		MinBatteryPct: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(40 * units.Second)
	if !d.Done() {
		t.Fatal("dialer never finished")
	}
	if d.Refused {
		t.Fatalf("refused at %d%% battery", d.LastBatteryPct)
	}
	if d.HungUpAt == 0 {
		t.Fatal("never hung up")
	}
	if smdd.ARM9().CallStateNow() != msm.CallIdle {
		t.Fatalf("baseband state = %v", smdd.ARM9().CallStateNow())
	}
	// ≈20 s of call at 800 mW billed to the dialer: the call went
	// active (only an active call bills), and the idle baseband above
	// shows it ended.
	st, _ := d.Reserve.Stats(label.Priv{})
	want := units.Joules(16)
	if st.Consumed < want*80/100 || st.Consumed > want*130/100 {
		t.Fatalf("dialer billed %v, want ≈%v", st.Consumed, want)
	}
}

func TestDialerRefusesOnLowBattery(t *testing.T) {
	// A nearly-dead battery (≈100 J drains fast at 699 mW idle): after
	// a minute the reading is well below a 50 % floor.
	k, smdd := dialerRig(t, 120*units.Joule)
	k.Run(60 * units.Second) // burn to ≈65 %… keep going
	k.Run(40 * units.Second) // ≈42 %
	d, err := NewDialer(k, k.Root, k.KernelPriv(), k.Battery(), DialerConfig{
		Number:        "+15551234567",
		Duration:      10 * units.Second,
		Rate:          units.Watt,
		MinBatteryPct: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(10 * units.Second)
	if !d.Refused {
		t.Fatalf("dialer placed a call at %d%% battery (floor 50%%)", d.LastBatteryPct)
	}
	if d.LastBatteryPct >= 50 {
		t.Fatalf("battery read %d%%, expected < 50%%", d.LastBatteryPct)
	}
	if smdd.Stats().CallsPlaced != 0 {
		t.Fatal("call reached the baseband despite refusal")
	}
}
