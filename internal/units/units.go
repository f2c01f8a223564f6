// Package units defines the physical quantities used throughout the Cinder
// simulation: energy in microjoules, power in microwatts, and simulated
// time in milliseconds.
//
// All three are integer types. Integer arithmetic keeps the simulation
// deterministic and free of floating-point drift: an experiment that runs
// for twenty simulated minutes performs on the order of 10^8 energy
// updates, and the paper's evaluation depends on exact conservation
// (energy leaving the battery equals energy accounted to reserves plus
// energy consumed). The only floating-point code in the package is the
// human-readable formatting.
//
// Conversions between power, time and energy round toward zero. Rounding
// residue is handled by callers that integrate over many ticks (see
// energy.Tap, which carries the remainder between flows).
package units

import (
	"fmt"
	"math"
)

// Energy is an amount of energy in microjoules (µJ).
//
// The zero value is "no energy". Energy may be negative only in the
// explicit after-the-fact debt case described in §5.5.2 of the paper;
// ordinary reserve operations never produce negative values.
type Energy int64

// Power is a rate of energy flow in microwatts (µW), i.e. µJ/s.
type Power int64

// Time is a simulated instant or duration in milliseconds.
type Time int64

// Common energy quantities.
const (
	Microjoule Energy = 1
	Millijoule Energy = 1000 * Microjoule
	Joule      Energy = 1000 * Millijoule
	Kilojoule  Energy = 1000 * Joule
)

// Common power quantities.
const (
	Microwatt Power = 1
	Milliwatt Power = 1000 * Microwatt
	Watt      Power = 1000 * Milliwatt
)

// Common durations.
const (
	Millisecond Time = 1
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// MaxEnergy is the largest representable energy quantity. It is used as
// an "unlimited" sentinel for reserves with no cap.
const MaxEnergy Energy = math.MaxInt64

// Joules constructs an Energy from a floating-point joule count, rounding
// to the nearest microjoule. It is intended for test and configuration
// literals, not for the simulation hot path.
func Joules(j float64) Energy {
	return Energy(math.Round(j * 1e6))
}

// Milliwatts constructs a Power from a floating-point milliwatt count.
func Milliwatts(mw float64) Power {
	return Power(math.Round(mw * 1e3))
}

// Watts constructs a Power from a floating-point watt count.
func Watts(w float64) Power {
	return Power(math.Round(w * 1e6))
}

// Seconds constructs a Time from a floating-point second count.
func Seconds(s float64) Time {
	return Time(math.Round(s * 1e3))
}

// Joules reports the energy as a floating-point number of joules.
func (e Energy) Joules() float64 { return float64(e) / 1e6 }

// Milliwatts reports the power as floating-point milliwatts.
func (p Power) Milliwatts() float64 { return float64(p) / 1e3 }

// Seconds reports the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e3 }

// Over returns the energy delivered by power p over duration d,
// truncated toward zero. Callers that integrate repeatedly should
// accumulate the sub-microjoule remainder themselves; see EnergyOverRem.
func (p Power) Over(d Time) Energy {
	return Energy(int64(p) * int64(d) / 1000)
}

// OverRem returns the energy delivered by power p over duration d along
// with the remainder in microwatt-milliseconds (µJ·10⁻³). Adding the
// returned remainder to the next call's accumulator makes long
// integrations exact:
//
//	acc += int64(p) * int64(d)
//	e := units.Energy(acc / 1000)
//	acc %= 1000
func (p Power) OverRem(d Time, carry int64) (Energy, int64) {
	total := int64(p)*int64(d) + carry
	return Energy(total / 1000), total % 1000
}

// DividedBy returns the average power that delivers energy e over
// duration d. It returns 0 if d is 0.
func (e Energy) DividedBy(d Time) Power {
	if d == 0 {
		return 0
	}
	return Power(int64(e) * 1000 / int64(d))
}

// Min returns the smaller of two energies.
func Min(a, b Energy) Energy {
	if a < b {
		return a
	}
	return b
}

// ClampNonNegative returns e, or 0 if e is negative.
func ClampNonNegative(e Energy) Energy {
	if e < 0 {
		return 0
	}
	return e
}

// String renders the energy with an SI-style unit chosen by magnitude,
// e.g. "9.50 J", "137.00 mJ", "42 µJ".
func (e Energy) String() string {
	abs := e
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= Kilojoule:
		return fmt.Sprintf("%.3f kJ", float64(e)/float64(Kilojoule))
	case abs >= Joule:
		return fmt.Sprintf("%.2f J", float64(e)/float64(Joule))
	case abs >= Millijoule:
		return fmt.Sprintf("%.2f mJ", float64(e)/float64(Millijoule))
	default:
		return fmt.Sprintf("%d µJ", int64(e))
	}
}

// String renders the power with an SI-style unit chosen by magnitude,
// e.g. "1.20 W", "137.00 mW", "250 µW".
func (p Power) String() string {
	abs := p
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= Watt:
		return fmt.Sprintf("%.2f W", float64(p)/float64(Watt))
	case abs >= Milliwatt:
		return fmt.Sprintf("%.2f mW", float64(p)/float64(Milliwatt))
	default:
		return fmt.Sprintf("%d µW", int64(p))
	}
}

// String renders the time as seconds for durations of at least one
// second and milliseconds otherwise, e.g. "1201.0 s", "250 ms".
func (t Time) String() string {
	abs := t
	if abs < 0 {
		abs = -abs
	}
	if abs >= Second {
		return fmt.Sprintf("%.1f s", float64(t)/float64(Second))
	}
	return fmt.Sprintf("%d ms", int64(t))
}
