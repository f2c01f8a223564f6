package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstantsRelations(t *testing.T) {
	if Joule != 1_000_000*Microjoule {
		t.Errorf("Joule = %d µJ, want 1e6", int64(Joule))
	}
	if Kilojoule != 1000*Joule {
		t.Errorf("Kilojoule = %d, want 1000 J", int64(Kilojoule))
	}
	if Watt != 1_000_000*Microwatt {
		t.Errorf("Watt = %d µW, want 1e6", int64(Watt))
	}
	if Hour != 3_600_000*Millisecond {
		t.Errorf("Hour = %d ms, want 3.6e6", int64(Hour))
	}
}

func TestConstructors(t *testing.T) {
	tests := []struct {
		got, want int64
		name      string
	}{
		{int64(Joules(9.5)), 9_500_000, "Joules(9.5)"},
		{int64(Joules(0)), 0, "Joules(0)"},
		{int64(Joules(-1.5)), -1_500_000, "Joules(-1.5)"},
		{int64(Milliwatts(137)), 137_000, "Milliwatts(137)"},
		{int64(Milliwatts(0.75)), 750, "Milliwatts(0.75)"},
		{int64(Watts(0.699)), 699_000, "Watts(0.699)"},
		{int64(Seconds(20)), 20_000, "Seconds(20)"},
		{int64(Seconds(0.2)), 200, "Seconds(0.2)"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("%s = %d, want %d", tt.name, tt.got, tt.want)
		}
	}
}

func TestPowerOver(t *testing.T) {
	// 137 mW for 1 s = 137 mJ.
	if got := Milliwatts(137).Over(Second); got != 137*Millijoule {
		t.Errorf("137mW over 1s = %v, want 137 mJ", got)
	}
	// 1 mW for 1 ms = 1 µJ.
	if got := Milliwatt.Over(Millisecond); got != Microjoule {
		t.Errorf("1mW over 1ms = %v, want 1 µJ", got)
	}
	// 750 mW over 15 kJ battery ≈ 5.55 hours (paper §3.4): check the
	// inverse: energy over 20000 s.
	if got := Milliwatts(750).Over(20000 * Second); got != 15*Kilojoule {
		t.Errorf("750mW over 20000s = %v, want 15 kJ", got)
	}
	// Truncation: 1 µW over 1 ms is below 1 µJ and truncates to zero.
	if got := Microwatt.Over(Millisecond); got != 0 {
		t.Errorf("1µW over 1ms = %v, want 0 (truncated)", got)
	}
}

func TestOverRemExactIntegration(t *testing.T) {
	// Integrating 1 µW in 1 ms steps for 1 s must produce exactly 1 µJ
	// when the carry is threaded through, even though each single step
	// truncates to zero.
	var total Energy
	var carry int64
	for i := 0; i < 1000; i++ {
		var e Energy
		e, carry = Microwatt.OverRem(Millisecond, carry)
		total += e
	}
	if total != 1*Microjoule {
		t.Errorf("integrated 1µW over 1s = %v, want 1 µJ", total)
	}
	if carry != 0 {
		t.Errorf("carry after exact integration = %d, want 0", carry)
	}
}

func TestOverRemMatchesOverProperty(t *testing.T) {
	// Σ OverRem steps == Over of the whole interval (+ bounded residue).
	f := func(pRaw int32, steps uint8) bool {
		p := Power(int64(pRaw)%1_000_000 + 1_000_000) // 1–2 W
		n := int(steps)%100 + 1
		var total Energy
		var carry int64
		for i := 0; i < n; i++ {
			var e Energy
			e, carry = p.OverRem(Millisecond, carry)
			total += e
		}
		whole := p.Over(Time(n) * Millisecond)
		// Residue must be the carry only, strictly below 1 µJ·1000.
		return total == whole && carry >= 0 && carry < 1000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDividedBy(t *testing.T) {
	if got := (137 * Millijoule).DividedBy(Second); got != Milliwatts(137) {
		t.Errorf("137mJ / 1s = %v, want 137 mW", got)
	}
	if got := Energy(500).DividedBy(0); got != 0 {
		t.Errorf("x / 0 = %v, want 0", got)
	}
	// Paper Table 1: 1238 J over 1201 s ≈ 1.03 W.
	got := (1238 * Joule).DividedBy(1201 * Second)
	if got < Watts(1.02) || got > Watts(1.04) {
		t.Errorf("1238J/1201s = %v, want ≈1.03 W", got)
	}
}

func TestMinMaxClamp(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min broken")
	}
	if ClampNonNegative(-4) != 0 {
		t.Error("ClampNonNegative(-4) != 0")
	}
	if ClampNonNegative(4) != 4 {
		t.Error("ClampNonNegative(4) != 4")
	}
}

func TestStrings(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{Joules(9.5).String(), "9.50 J"},
		{(15 * Kilojoule).String(), "15.000 kJ"},
		{(137 * Millijoule).String(), "137.00 mJ"},
		{Energy(42).String(), "42 µJ"},
		{Milliwatts(137).String(), "137.00 mW"},
		{Watts(1.2).String(), "1.20 W"},
		{Power(250).String(), "250 µW"},
		{(1201 * Second).String(), "1201.0 s"},
		{Time(250).String(), "250 ms"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String() = %q, want %q", tt.got, tt.want)
		}
	}
}

func TestJoulesRoundTrip(t *testing.T) {
	f := func(raw int32) bool {
		e := Energy(raw)
		back := Joules(e.Joules())
		return back == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverNoOverflowAtScale(t *testing.T) {
	// A full battery drained at 2 W for a day must not overflow int64.
	e := Watts(2).Over(24 * Hour)
	if e != Energy(172800)*Joule {
		t.Errorf("2W over 24h = %v, want 172.8 kJ", e)
	}
	if int64(e) < 0 || int64(e) > math.MaxInt64/1000 {
		t.Errorf("unexpected magnitude %d", int64(e))
	}
}
