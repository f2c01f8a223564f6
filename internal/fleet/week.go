package fleet

import (
	"repro/internal/units"
)

// This file assembles the week-in-the-life population: seven simulated
// days per device with weekday/weekend phase alternation, over a
// heterogeneous hardware and habit population. Unlike the 24 h
// day-in-the-life mix — three identical cohorts — every device draws
// its own parameters from its construction stream: battery capacity
// (through the Provisioner hook, fixed before the kernel is built),
// poller cadence, commute length, and screen habit. Battery capacities
// straddle the energy a week of baseline draw costs (≈423 kJ at the
// Dream's 699 mW floor), so deaths arrive heterogeneously across days
// five through seven — the lifetime-scale argument the paper's reserves
// are for.

// Per-device parameter ranges (drawn uniformly per device).
const (
	weekBatteryBase = 400 * units.Kilojoule
	weekBatterySpan = 330 * units.Kilojoule
)

// WeekInTheLife returns the 7-day heterogeneous fleet scenario.
func WeekInTheLife() Scenario { return weekScenario{days: 7} }

// weekScenario implements Scenario and Provisioner.
type weekScenario struct {
	days int
}

// Name implements Scenario.
func (weekScenario) Name() string { return "weekinthelife" }

// Provision implements Provisioner: the per-device battery draw. It
// derives its own splitmix stream from the device seed so construction
// randomness (phase jitter, cohort assignment) is untouched.
func (weekScenario) Provision(_ int, seed int64) DeviceProvision {
	r := newSplitmix(seed ^ 0x5EED_BA77_E41) // distinct stream from Build's
	return DeviceProvision{
		BatteryCapacity: weekBatteryBase + units.Energy(r.Intn(int64(weekBatterySpan))),
	}
}

// Build implements Scenario: draw the device's cohort and habits, then
// compose seven days of phases.
func (w weekScenario) Build(d *Device) error {
	r := d.Rand
	cohort := r.Intn(10)

	// Habit draws happen for every cohort (whether or not the cohort
	// uses them) so the construction stream stays aligned and a device's
	// cohort alone decides its behaviour.
	pollEvery := 8*units.Minute + units.Time(r.Intn(int64(8*units.Minute)))
	commute := 40*units.Minute + units.Time(r.Intn(int64(50*units.Minute)))
	screenHabit := 5*units.Minute + units.Time(r.Intn(int64(10*units.Minute)))

	days := w.days
	if days <= 0 {
		days = 7
	}
	var label string
	var phases []Phase
	switch {
	case cohort < 5:
		label = "week-idle"
		phases = idleWeek(days, screenHabit)
	case cohort < 8:
		label = "week-commuter"
		phases = commuterWeek(days, pollEvery, commute, screenHabit)
	default:
		label = "week-chatty"
		phases = chattyWeek(days, screenHabit)
	}
	d.Scenario = label
	return Compose{Label: label, Phases: phases}.Build(d)
}

// weekend reports whether day d (0-based, day 0 = Monday) is Saturday
// or Sunday.
func weekend(day int) bool { return day%7 >= 5 }

// idleWeek: a phone that lives in a pocket. Weekdays it is glanced at
// morning and evening; weekends it gets a longer couch session.
func idleWeek(days int, screen units.Time) []Phase {
	var ps []Phase
	for day := 0; day < days; day++ {
		base := units.Time(day) * 24 * units.Hour
		if weekend(day) {
			ps = append(ps,
				Phase{Workload: Screen{}, Start: base + 10*units.Hour, Duration: screen * 2, Jitter: 2 * units.Hour},
				Phase{Workload: Screen{}, Start: base + 19*units.Hour, Duration: screen, Jitter: 2 * units.Hour},
			)
			continue
		}
		ps = append(ps,
			Phase{Workload: Screen{}, Start: base + 7*units.Hour + 30*units.Minute, Duration: screen, Jitter: 30 * units.Minute},
			Phase{Workload: Screen{}, Start: base + 18*units.Hour, Duration: screen, Jitter: 2 * units.Hour},
		)
	}
	return ps
}

// commuterWeek: the §6.4 background pair runs during the weekday
// commutes at the device's own cadence, with a lunchtime browse; the
// weekend drops the commutes for an evening browse.
func commuterWeek(days int, pollEvery, commute, screen units.Time) []Phase {
	pollers := Pollers{Interval: pollEvery}
	var ps []Phase
	for day := 0; day < days; day++ {
		base := units.Time(day) * 24 * units.Hour
		if weekend(day) {
			ps = append(ps,
				Phase{Workload: Screen{}, Start: base + 11*units.Hour, Duration: screen, Jitter: 2 * units.Hour},
				Phase{Workload: Browse{Pages: 10}, Start: base + 20*units.Hour, Duration: 30 * units.Minute, Jitter: units.Hour},
			)
			continue
		}
		ps = append(ps,
			Phase{Workload: Screen{}, Start: base + 7*units.Hour, Duration: screen, Jitter: 20 * units.Minute},
			Phase{Workload: pollers, Start: base + 7*units.Hour + 30*units.Minute, Duration: commute, Jitter: 30 * units.Minute},
			Phase{Workload: Browse{Pages: 8}, Start: base + 12*units.Hour + 30*units.Minute, Duration: 25 * units.Minute, Jitter: 45 * units.Minute},
			Phase{Workload: pollers, Start: base + 17*units.Hour + 30*units.Minute, Duration: commute, Jitter: 30 * units.Minute},
			Phase{Workload: Screen{}, Start: base + 20*units.Hour, Duration: screen, Jitter: 90 * units.Minute},
		)
	}
	return ps
}

// chattyWeek: the ARM9 path. Weekdays carry a midday call and an
// afternoon SMS burst; weekends add a second call and a browse.
func chattyWeek(days int, screen units.Time) []Phase {
	var ps []Phase
	for day := 0; day < days; day++ {
		base := units.Time(day) * 24 * units.Hour
		if weekend(day) {
			ps = append(ps,
				Phase{Workload: Screen{}, Start: base + 10*units.Hour, Duration: screen, Jitter: units.Hour},
				Phase{Workload: Call{CallTime: 4 * units.Minute}, Start: base + 11*units.Hour, Duration: 6 * units.Minute, Jitter: units.Hour},
				Phase{Workload: Browse{Pages: 12}, Start: base + 15*units.Hour, Duration: 30 * units.Minute, Jitter: units.Hour},
				Phase{Workload: Call{CallTime: 3 * units.Minute}, Start: base + 19*units.Hour, Duration: 5 * units.Minute, Jitter: 90 * units.Minute},
				Phase{Workload: SMSBurst{Count: 5, Interval: 40 * units.Second}, Start: base + 21*units.Hour, Duration: 10 * units.Minute, Jitter: units.Hour},
			)
			continue
		}
		ps = append(ps,
			Phase{Workload: Screen{}, Start: base + 7*units.Hour + 30*units.Minute, Duration: screen, Jitter: 30 * units.Minute},
			Phase{Workload: Call{CallTime: 2 * units.Minute}, Start: base + 12*units.Hour, Duration: 5 * units.Minute, Jitter: units.Hour},
			Phase{Workload: SMSBurst{Count: 4, Interval: 45 * units.Second}, Start: base + 15*units.Hour, Duration: 10 * units.Minute, Jitter: units.Hour},
			Phase{Workload: Browse{Pages: 6}, Start: base + 18*units.Hour + 30*units.Minute, Duration: 20 * units.Minute, Jitter: units.Hour},
			Phase{Workload: Screen{}, Start: base + 21*units.Hour, Duration: screen, Jitter: 30 * units.Minute},
		)
	}
	return ps
}
