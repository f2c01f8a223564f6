package fleet

import (
	"repro/internal/estimator"
	"repro/internal/netquota"
	"repro/internal/power"
	"repro/internal/units"
)

// This file assembles the month-in-the-life population: thirty simulated
// days per device over a mixed-hardware fleet that actually recharges.
// Three things distinguish it from the week scenario it extends:
//
//   - Recharge cycles. Phone cohorts plug the stock AC adapter in every
//     evening (minus the occasional forgotten night) and laptops live on
//     wall power most of the day, so the battery level is non-monotone
//     for the entire run. Deaths come from forgotten nights and greedy
//     days rather than a single monotone slide to empty.
//
//   - Mixed hardware. One device in eight is a ThinkPad T60p — the
//     paper's second measured platform — provisioned through the
//     DeviceProvision.Profile hook, so Dream phones and T60p laptops
//     coexist in one fleet with their own baselines, radios, activation
//     costs and batteries.
//
//   - Adaptive subsystems as workload participants. Every device runs
//     an online radio-activation estimator feeding netd's pooling
//     threshold (§9's adaptation sketch) and meters its browsing
//     against a monthly netquota data plan — both previously unit-test
//     fixtures, now exercised (and checkpointed) by the fleet path.
//
// The week scenario's checkpoint discipline carries over: workload
// phases end hours before midnight so day boundaries stay quiet. The
// one deliberate exception is the nightly charge window, which *spans*
// midnight — epoch snapshots must carry a live plugged charger (quantum
// cursor, sub-quantum carry, any closed-form deferral), which is
// exactly the integration the charger's snapshot section exists for.
// Plug and unplug instants avoid the exact midnight instant.

const (
	monthDays = 30

	// monthStream separates the hardware-assignment stream from Build's
	// construction stream (and from the week scenario's provisioning
	// stream). Provision and Build both derive it from the device seed,
	// so the kernel a device is built on and the phases installed on it
	// always agree on what hardware it is.
	monthStream = 0x0C1A_DE00_30D1

	// Phone batteries draw from [140, 180) kJ. The sizing pivot is the
	// forgotten-charger night: skipping one stretches the gap between
	// charges to ~41 h, which costs ~105 kJ at the Dream's 699 mW floor
	// plus workload draw — survivable on any battery in the range, while
	// two forgotten nights in a row (a ~65 h gap) exhaust every one of
	// them. Deaths are a tail event of the habit model, not the norm.
	// Laptops take the T60p profile's battery (200 kJ).
	monthBatteryBase = 140 * units.Kilojoule
	monthBatterySpan = 40 * units.Kilojoule

	// monthPlanQuota is the monthly data budget each device's metered
	// browsing charges against: 12 MiB is sized so phone cohorts brush
	// against it in the final week and laptops exhaust it mid-month —
	// quota refusal is an observed behaviour, not a dead branch.
	monthPlanQuota = 12 * netquota.Mebibyte
)

// MonthInTheLife returns the 30-day mixed-hardware recharging fleet
// scenario.
func MonthInTheLife() Scenario { return monthScenario{days: monthDays} }

// monthScenario implements Scenario and Provisioner.
type monthScenario struct {
	days int
}

// Name implements Scenario.
func (monthScenario) Name() string { return "monthinthelife" }

// monthHardware derives the device's hardware class from its seed on a
// dedicated stream. A laptop reports zero capacity: the T60p profile's
// own battery applies.
func monthHardware(seed int64) (laptop bool, battery units.Energy) {
	r := newSplitmix(seed ^ monthStream)
	if r.Intn(8) == 0 {
		return true, 0
	}
	return false, monthBatteryBase + units.Energy(r.Intn(int64(monthBatterySpan)))
}

// Provision implements Provisioner: one device in eight is a T60p, the
// rest are Dream phones with per-device battery capacities.
func (monthScenario) Provision(_ int, seed int64) DeviceProvision {
	laptop, battery := monthHardware(seed)
	if laptop {
		return DeviceProvision{Profile: power.LaptopT60p()}
	}
	return DeviceProvision{BatteryCapacity: battery}
}

// Build implements Scenario: wire the adaptive subsystems, draw the
// device's habits, then compose thirty days of phases.
func (m monthScenario) Build(d *Device) error {
	days := m.days
	if days <= 0 {
		days = monthDays
	}
	laptop, _ := monthHardware(d.Seed)

	// netd's pooling threshold tracks this device's measured activation
	// overhead instead of the static profile prior — mixed hardware is
	// where a per-device estimate earns its keep, since the T60p's
	// activation cost is 19× smaller than the Dream's. The estimator's
	// running state is checkpointed alongside the device.
	est := estimator.NewActivationEstimator(d.Radio, estimator.DefaultAlphaPct)
	d.Netd.SetEstimator(est)
	d.Hooks = append(d.Hooks, est.Codec)

	// The monthly data plan all browsing is metered against. The plan
	// is a second, byte-denominated consumption graph; its allowance
	// levels ride device snapshots through the plan's own section.
	plan := netquota.NewPlan(d.Kernel.Table, d.Kernel.Root, netquota.PlanConfig{
		Quota:    monthPlanQuota,
		Category: d.Kernel.NewCategory(),
	})
	browseAllow, err := plan.NewAllowance("browse", 0)
	if err != nil {
		return err
	}
	if err := plan.Grant(browseAllow, monthPlanQuota); err != nil {
		return err
	}
	d.Hooks = append(d.Hooks, plan.Codec)

	// Habit draws happen for every device — laptops included, even
	// where a habit goes unused — so the construction stream stays
	// aligned and hardware class plus cohort alone decide behaviour.
	r := d.Rand
	cohort := r.Intn(10)
	pollEvery := 8*units.Minute + units.Time(r.Intn(int64(8*units.Minute)))
	commute := 40*units.Minute + units.Time(r.Intn(int64(50*units.Minute)))
	screenHabit := 5*units.Minute + units.Time(r.Intn(int64(10*units.Minute)))
	// A few devices in a hundred nights forget the charger — the death
	// heterogeneity of the population comes from these nights.
	forgetPct := r.Intn(12)
	forget := make([]bool, days)
	for i := range forget {
		forget[i] = r.Intn(100) < forgetPct
	}

	var lbl string
	var phases []Phase
	if laptop {
		lbl = "month-laptop"
		phases = laptopMonth(days, screenHabit, browseAllow)
	} else {
		switch {
		case cohort < 5:
			lbl = "month-idle"
			phases = idleWeek(days, screenHabit)
		case cohort < 8:
			lbl = "month-commuter"
			phases = commuterWeek(days, pollEvery, commute, screenHabit)
		default:
			lbl = "month-chatty"
			phases = chattyWeek(days, screenHabit)
		}
		phases = append(phases, meteredEvenings(days, browseAllow)...)
		phases = append(phases, nightlyCharge(days, forget)...)
	}
	d.Scenario = lbl
	return Compose{Label: lbl, Phases: phases}.Build(d)
}

// meteredEvenings adds a browsing session every third evening, charged
// against the device's data plan. Sessions end — teardown, netd tails
// and the radio's 20 s idle timeout included — before the nightly
// charge plugs in at 22:30.
func meteredEvenings(days int, allow *netquota.Allowance) []Phase {
	var ps []Phase
	for day := 0; day < days; day += 3 {
		base := units.Time(day) * 24 * units.Hour
		ps = append(ps, Phase{
			Workload: Browse{Pages: 15, Allowance: allow},
			Start:    base + 20*units.Hour,
			Duration: 30 * units.Minute,
			Jitter:   units.Hour,
		})
	}
	return ps
}

// nightlyCharge plugs the stock AC adapter in each evening at 22:30
// (plus up to 30 min of per-device jitter) and unplugs seven hours
// later. The window spans the midnight epoch boundary on purpose: day-
// boundary checkpoints must carry the live charger. At 4 W delivered, a
// seven-hour night refills any phone battery in the population from
// empty and spends the tail in the clamped top-off regime.
func nightlyCharge(days int, forget []bool) []Phase {
	var ps []Phase
	for day := 0; day < days; day++ {
		if forget[day] {
			continue
		}
		base := units.Time(day) * 24 * units.Hour
		ps = append(ps, Phase{
			Workload: Charge{},
			Start:    base + 22*units.Hour + 30*units.Minute,
			Duration: 7 * units.Hour,
			Jitter:   30 * units.Minute,
		})
	}
	return ps
}

// laptopMonth is the T60p cohort's day: a workstation on wall power in
// three stretches (early morning through the commute gap, back after a
// lunch outing, evening until a 23:30 unplug), with screen-heavy work
// hours, a mail/RSS poller pair at laptop cadence, and metered evening
// browsing. The 18 W idle floor means even the one-hour unplugged gaps
// cost ≈65 kJ — a third of the battery — so the charge windows do real
// work every single day. All plug/unplug instants avoid exact midnight.
func laptopMonth(days int, screen units.Time, allow *netquota.Allowance) []Phase {
	work := Pollers{Interval: 5 * units.Minute}
	wall := power.LaptopCharger()
	var ps []Phase
	for day := 0; day < days; day++ {
		base := units.Time(day) * 24 * units.Hour
		ps = append(ps,
			Phase{Workload: Charge{Supply: wall}, Start: base + 30*units.Minute, Duration: 9 * units.Hour},
			Phase{Workload: Charge{Supply: wall}, Start: base + 10*units.Hour + 30*units.Minute, Duration: 4*units.Hour + 30*units.Minute},
			Phase{Workload: Charge{Supply: wall}, Start: base + 16*units.Hour, Duration: 7*units.Hour + 30*units.Minute},
		)
		if weekend(day) {
			ps = append(ps,
				Phase{Workload: Screen{}, Start: base + 11*units.Hour, Duration: screen * 4, Jitter: units.Hour},
				Phase{Workload: Browse{Pages: 20, Allowance: allow}, Start: base + 20*units.Hour, Duration: 40 * units.Minute, Jitter: 30 * units.Minute},
			)
			continue
		}
		ps = append(ps,
			Phase{Workload: Screen{}, Start: base + 9*units.Hour, Duration: 3 * units.Hour, Jitter: 15 * units.Minute},
			Phase{Workload: work, Start: base + 9*units.Hour + 30*units.Minute, Duration: 5 * units.Hour, Jitter: 15 * units.Minute},
			Phase{Workload: Screen{}, Start: base + 13*units.Hour, Duration: 2 * units.Hour, Jitter: 15 * units.Minute},
			Phase{Workload: Browse{Pages: 10, Allowance: allow}, Start: base + 21*units.Hour, Duration: 25 * units.Minute, Jitter: 30 * units.Minute},
		)
	}
	return ps
}
