package fleet

import (
	"testing"

	"repro/internal/units"
)

func weekRunCfg(devices, workers int) Config {
	return Config{
		Devices:     devices,
		Seed:        31,
		Duration:    7 * 24 * units.Hour,
		Workers:     workers,
		Scenario:    WeekInTheLife(),
		KeepResults: true,
	}
}

// TestWeekHeterogeneousPopulation: per-device draws must actually vary
// — battery capacities differ across the fleet, every cohort is
// populated, and each shows its signature activity.
func TestWeekHeterogeneousPopulation(t *testing.T) {
	rep, err := Run(weekRunCfg(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Buckets) != 3 {
		t.Fatalf("want 3 cohorts, got %+v", rep.Buckets)
	}
	caps := map[units.Energy]bool{}
	for _, r := range rep.Results {
		caps[r.Consumed+r.BatteryLeft] = true // consumed+left ≈ provisioned capacity (dead devices aside)
	}
	if len(caps) < 20 {
		t.Fatalf("battery provisioning not heterogeneous: %d distinct capacities over %d devices",
			len(caps), rep.Devices)
	}
	byName := map[string]Bucket{}
	for _, b := range rep.Buckets {
		byName[b.Name] = b
	}
	if byName["week-commuter"].Polls == 0 {
		t.Fatal("commuter cohort never polled")
	}
	if byName["week-chatty"].Calls == 0 || byName["week-chatty"].SMSSent == 0 {
		t.Fatal("chatty cohort silent")
	}
	if byName["week-idle"].Polls != 0 || byName["week-idle"].Calls != 0 {
		t.Fatal("idle cohort shows activity")
	}
}

// TestWeekWeekendAlternation: weekday and weekend behaviour must
// differ. The commuter cohort only polls on weekdays, so a run of the
// first five days accumulates all of the week's polls and a weekend-
// only horizon none.
func TestWeekWeekendAlternation(t *testing.T) {
	week, err := Run(weekRunCfg(20, 2))
	if err != nil {
		t.Fatal(err)
	}
	weekdays := weekRunCfg(20, 2)
	weekdays.Duration = 5 * 24 * units.Hour
	wd, err := Run(weekdays)
	if err != nil {
		t.Fatal(err)
	}
	if week.TotalPolls == 0 {
		t.Fatal("week fleet never polled")
	}
	if wd.TotalPolls != week.TotalPolls {
		t.Fatalf("weekend days added polls: weekdays %d, full week %d (commutes must be weekday-only)",
			wd.TotalPolls, week.TotalPolls)
	}
	// Weekend days still consume energy (screen, browse, calls).
	if week.TotalConsumed <= wd.TotalConsumed {
		t.Fatal("weekend days consumed nothing")
	}
}

// TestWeekDeathsSpanDays: battery draws straddle the week's baseline
// cost, so deaths land heterogeneously in the back half of the week
// rather than as a cliff.
func TestWeekDeathsSpanDays(t *testing.T) {
	cfg := weekRunCfg(60, 2)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dead == 0 {
		t.Fatal("no deaths in a week; battery provisioning too generous")
	}
	if rep.Dead == rep.Devices {
		t.Fatal("whole fleet died; battery provisioning too harsh")
	}
	day := 24 * units.Hour
	for _, r := range rep.Results {
		if r.Died && r.DiedAt < 4*day {
			t.Fatalf("device %d died on day %d; deaths should be a lifetime-scale effect",
				r.Index, int(r.DiedAt/day)+1)
		}
	}
	if rep.LifeP90 <= rep.LifeP50 {
		t.Fatalf("degenerate life percentiles p50 %v p90 %v", rep.LifeP50, rep.LifeP90)
	}
}
