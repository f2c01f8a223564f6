package power

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestDreamConstantsMatchPaper(t *testing.T) {
	p := Dream()
	if p.Idle != units.Milliwatts(699) {
		t.Errorf("Idle = %v, want 699 mW", p.Idle)
	}
	if p.Backlight != units.Milliwatts(555) {
		t.Errorf("Backlight = %v, want 555 mW", p.Backlight)
	}
	if p.CPUActive != units.Milliwatts(137) {
		t.Errorf("CPUActive = %v, want 137 mW", p.CPUActive)
	}
	if p.RadioActivationEnergy != units.Joules(9.5) {
		t.Errorf("RadioActivationEnergy = %v, want 9.5 J", p.RadioActivationEnergy)
	}
	if p.RadioIdleTimeout != 20*units.Second {
		t.Errorf("RadioIdleTimeout = %v, want 20 s", p.RadioIdleTimeout)
	}
	if p.BatteryCapacity != 15*units.Kilojoule {
		t.Errorf("BatteryCapacity = %v, want 15 kJ", p.BatteryCapacity)
	}
}

func TestActivationSplitSumsToPublishedOverhead(t *testing.T) {
	// Ramp energy + plateau energy must equal the 9.5 J the paper
	// measured for a single activation (Fig. 4).
	p := Dream()
	ramp := p.RadioRampExtra.Over(p.RadioRampTime)
	plateau := p.RadioActiveExtra.Over(p.RadioIdleTimeout)
	if total := ramp + plateau; total != p.RadioActivationEnergy {
		t.Fatalf("ramp %v + plateau %v = %v, want %v",
			ramp, plateau, total, p.RadioActivationEnergy)
	}
}

func TestWorstCaseCPU(t *testing.T) {
	p := Dream()
	want := units.Milliwatts(137) + units.Milliwatts(137)*13/100
	if got := p.WorstCaseCPU(); got != want {
		t.Fatalf("WorstCaseCPU = %v, want %v", got, want)
	}
}

func TestTransferTime(t *testing.T) {
	p := Dream()
	if got := p.TransferTime(0); got != 0 {
		t.Fatalf("TransferTime(0) = %v", got)
	}
	// One second of bandwidth takes one second.
	if got := p.TransferTime(p.NetBandwidth); got != units.Second {
		t.Fatalf("TransferTime(bw) = %v, want 1 s", got)
	}
	// Rounds up.
	if got := p.TransferTime(1); got != units.Millisecond {
		t.Fatalf("TransferTime(1B) = %v, want 1 ms", got)
	}
}

func TestPacketEnergy(t *testing.T) {
	p := Dream()
	one := p.PacketEnergy(1)
	big := p.PacketEnergy(1500)
	if one != p.RadioPerPacket+p.RadioPerKiB/1024 {
		t.Fatalf("PacketEnergy(1) = %v", one)
	}
	if big <= one {
		t.Fatal("1500 B packet not costlier than 1 B")
	}
	// Fig. 3's data cost scale: a full 10 s 1500 B × 40 pps *echo* flow
	// (800 packets round trip) should add roughly 4–6 J of marginal
	// cost over the ≈13 J flow baseline.
	flow := big * 800
	if flow < 4*units.Joule || flow > 6*units.Joule {
		t.Fatalf("800 × 1500 B packets = %v, want 4–6 J", flow)
	}
}

func TestMeterSamplesEvery200ms(t *testing.T) {
	e := sim.NewEngineMode(1, sim.ModeNextEvent)
	var consumed units.Energy
	m := NewMeter(e, "dev", func() units.Energy { return consumed })
	// Consume at a steady 1 W: 1 mJ per ms.
	e.Every("load", units.Millisecond, func(*sim.Engine) {
		consumed += units.Millijoule
	})
	e.Run(2 * units.Second)
	pts := m.Series().Points()
	if len(pts) != 10 {
		t.Fatalf("samples = %d, want 10", len(pts))
	}
	for _, p := range pts {
		if p.T%MeterSamplePeriod != 0 {
			t.Fatalf("sample at %v not on the 200 ms grid", p.T)
		}
		got := units.Power(p.V)
		if got < units.Watts(0.99) || got > units.Watts(1.01) {
			t.Fatalf("sample power = %v, want ≈1 W", got)
		}
	}
}

func TestLaptopProfileSane(t *testing.T) {
	p := LaptopT60p()
	if p.Idle <= Dream().Idle {
		t.Error("laptop idle should exceed phone idle")
	}
	if p.RadioActivationEnergy >= Dream().RadioActivationEnergy {
		t.Error("WiFi activation should be far below cellular")
	}
	if p.NetBandwidth <= Dream().NetBandwidth {
		t.Error("laptop bandwidth should exceed EDGE")
	}
}
