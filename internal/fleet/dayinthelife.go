package fleet

import (
	"repro/internal/units"
)

// This file assembles the day-in-the-life population: three archetypal
// device days composed from the phase primitives in compose.go, mixed
// across the fleet by weight. The timeline's t = 0 is the morning
// pick-up, so the busiest phases land early — with the Dream's 15 kJ
// battery and 699 mW idle floor a device lives ≈ 6 h (§4.2 makes a
// day-long G1 impossible; a battery-life sweep, one run per -battery-j
// value, explores bigger batteries), and front-loading keeps the
// buckets meaningfully different before the first deaths.

// IdleDay is the control-group day: a phone that is picked up twice and
// otherwise sits in a pocket. No taps, no threads — the purest test of
// the quiescent fast path at population scale.
func IdleDay() Compose {
	return Compose{
		Label: "idle-day",
		Phases: []Phase{
			{Workload: Screen{}, Start: 0, Duration: 5 * units.Minute, Jitter: 10 * units.Minute},
			{Workload: Screen{}, Start: 4 * units.Hour, Duration: 10 * units.Minute, Jitter: 2 * units.Hour},
			{Workload: Screen{}, Start: 14 * units.Hour, Duration: 10 * units.Minute, Jitter: 2 * units.Hour},
		},
	}
}

// CommuterDay is the background-network-heavy day: the §6.4 poller pair
// runs during two commute windows (at a day-scale 5 min period), with a
// lunchtime browsing burst and a few screen sessions.
func CommuterDay() Compose {
	pollers := Pollers{Interval: 5 * units.Minute}
	return Compose{
		Label: "commuter-day",
		Phases: []Phase{
			{Workload: Screen{}, Start: 0, Duration: 10 * units.Minute, Jitter: 15 * units.Minute},
			{Workload: pollers, Start: 30 * units.Minute, Duration: 90 * units.Minute, Jitter: 30 * units.Minute},
			{Workload: Browse{Pages: 12}, Start: 5 * units.Hour, Duration: 30 * units.Minute, Jitter: units.Hour},
			{Workload: Screen{}, Start: 5 * units.Hour, Duration: 15 * units.Minute, Jitter: units.Hour},
			{Workload: pollers, Start: 10 * units.Hour, Duration: 90 * units.Minute, Jitter: 30 * units.Minute},
			{Workload: Screen{}, Start: 13 * units.Hour, Duration: 20 * units.Minute, Jitter: 2 * units.Hour},
		},
	}
}

// ChattyDay is the ARM9-path day: voice calls and SMS bursts over the
// baseband, an evening browse, screen time around each interaction.
func ChattyDay() Compose {
	return Compose{
		Label: "chatty-day",
		Phases: []Phase{
			{Workload: Screen{}, Start: 0, Duration: 5 * units.Minute, Jitter: 10 * units.Minute},
			{Workload: Call{CallTime: 2 * units.Minute}, Start: 90 * units.Minute, Duration: 5 * units.Minute, Jitter: units.Hour},
			{Workload: SMSBurst{Count: 4, Interval: 45 * units.Second}, Start: 3 * units.Hour, Duration: 10 * units.Minute, Jitter: units.Hour},
			{Workload: Browse{Pages: 8}, Start: 4*units.Hour + 30*units.Minute, Duration: 20 * units.Minute, Jitter: units.Hour},
			{Workload: Screen{}, Start: 5 * units.Hour, Duration: 10 * units.Minute, Jitter: units.Hour},
			{Workload: Call{CallTime: 3 * units.Minute}, Start: 11 * units.Hour, Duration: 10 * units.Minute, Jitter: 2 * units.Hour},
			{Workload: SMSBurst{Count: 6, Interval: 30 * units.Second}, Start: 13 * units.Hour, Duration: 10 * units.Minute, Jitter: 2 * units.Hour},
		},
	}
}

// DayInTheLife is the heterogeneous 24 h fleet mix: half the population
// barely touches the phone, three in ten are commuters living off
// background sync, two in ten live on the voice/SMS path. Assignment
// draws from each device's construction stream, so reports are
// byte-identical across worker counts.
func DayInTheLife() Mix {
	return Mix{
		Label: "dayinthelife",
		Entries: []MixEntry{
			{Weight: 5, Scenario: IdleDay()},
			{Weight: 3, Scenario: CommuterDay()},
			{Weight: 2, Scenario: ChattyDay()},
		},
	}
}
