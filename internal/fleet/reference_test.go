//go:build !race

// The reference walks every millisecond of every window; under the
// race detector these windows take minutes, so the race pass skips the
// file and the plain test pass runs it.

package fleet

import (
	"sort"
	"testing"

	"repro/internal/units"
)

// referenceWindows sizes one production-versus-reference run for each
// built-in scenario, by its Scenarios() name: small enough for the
// fixed-tick oracle to walk, long enough to cross the scenario's
// distinctive paths. The scenario itself comes from the registry.
var referenceWindows = map[string]Config{
	"dayinthelife": {Devices: 6, Seed: 3, Duration: 45 * units.Minute},
	// 16 h of the heterogeneous week covers its weekday structure —
	// per-device poller cadences over the morning commute, the midday
	// call, the afternoon SMS burst.
	"weekinthelife": {Devices: 3, Seed: 5, Duration: 16 * units.Hour},
	// 26 h of the month covers a full overnight charge window (22:30 +
	// 7 h, spanning midnight) plus the metered evening browse, with
	// seed 3 drawing both T60p laptops and Dream phones among the four
	// devices — the charger credit path and the mixed-hardware split
	// both cross the oracle.
	"monthinthelife": {Devices: 4, Seed: 3, Duration: 26 * units.Hour},
	// 16 h of the adversarial day puts all three cohorts (seed 13:
	// lax, two victims, strict) through the hoarder's grab tap, the
	// backward tax and the once-a-minute evasion attempts, with the
	// small-battery hoarders reaching their clamped endgame inside the
	// horizon.
	"adversarial": {Devices: 4, Seed: 13, Duration: 16 * units.Hour},
	// The §6.4 rss+mail pair per device, long enough for dozens of
	// pooled activations per device to cross the settled busy path.
	"poller": {Devices: 4, Seed: 7, Duration: 40 * units.Minute},
	// An idle hour on a 1,300 J battery: the baseline settles in closed
	// form for about 31 minutes, then the battery watch declares the
	// death.
	"idle": {Devices: 4, Seed: 1, Duration: units.Hour, BatteryCapacity: units.Joules(1300)},
	// Ten minutes of the CPU hog: every scheduler quantum is billed to
	// the spinner's reserve.
	"spinner": {Devices: 2, Seed: 1, Duration: 10 * units.Minute},
}

// TestScenarioEngineEquivalence runs every built-in scenario (the set
// `cinder-fleet -scenario` accepts) through CheckVariants under the
// reference variant: the canonical reports, per-device results
// included, must be byte-identical. A scenario with no window fails the
// test: adding a scenario requires adding its window. The month window
// must credit the charger and hold both hardware classes, so the
// closed-form charge settlement crosses the oracle. A busier synthetic
// mix (every workload primitive compressed into 20 minutes) rides along
// so call, SMS, browse and poller phases all cross the settled busy
// path.
func TestScenarioEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := map[string]Config{
		"dense-mix": {Devices: 4, Seed: 9, Duration: 20 * units.Minute, Scenario: denseMix()},
	}
	for name, sc := range Scenarios() {
		cfg, ok := referenceWindows[name]
		if !ok {
			t.Fatalf("scenario %q has no reference window: add one to referenceWindows", name)
		}
		cfg.Scenario = sc
		cases[name] = cfg
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		cfg := cases[name]
		cfg.Workers = 2
		t.Run(name, func(t *testing.T) {
			rep, _, err := CheckVariants(cfg, VaryReference)
			if err != nil {
				t.Fatal(err)
			}
			if name == "monthinthelife" && (rep.TotalRecharged == 0 || len(rep.Buckets) < 2) {
				t.Errorf("the month window misses the charger or the hardware mix: recharged %v, %d buckets",
					rep.TotalRecharged, len(rep.Buckets))
			}
		})
	}
}
