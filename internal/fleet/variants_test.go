package fleet

import (
	"sort"
	"testing"

	"repro/internal/units"
)

// variantSizes sizes one CheckVariants table cell for each built-in
// scenario, by its Scenarios() name: small enough that the whole table
// costs a few seconds, long enough to cross the scenario's distinctive
// paths. TestScenarioVariants checkpoints every cell at half its
// duration, wherever that lands in the scenario's phases.
var variantSizes = map[string]Config{
	// Each poller device dies at about 4.9 h, so the 4 h snapshot
	// carries live pollers and their completed polls.
	"poller": {Devices: 8, Seed: 1, Duration: 8 * units.Hour},
	// The idle devices snapshot at 4 h and die at about 5.9 h.
	"idle": {Devices: 16, Seed: 1, Duration: 8 * units.Hour},
	// Every scheduler quantum is billed: minutes cost what hours cost
	// elsewhere.
	"spinner": {Devices: 3, Seed: 1, Duration: 6 * units.Minute},
	// A 60 kJ battery keeps devices alive past the 12 h snapshot; they
	// die at about 23 h.
	"dayinthelife":  {Devices: 24, Seed: 9, Duration: 24 * units.Hour, BatteryCapacity: units.Joules(60000)},
	"weekinthelife": {Devices: 12, Seed: 11, Duration: 72 * units.Hour},
	// TestMonthRechargeObservable holds that this cell crosses the
	// charger and both hardware classes.
	"monthinthelife": {Devices: 16, Seed: 11, Duration: 72 * units.Hour},
	// Three lax and three strict hoarders among twelve; two die between
	// the 6 h snapshot and the horizon.
	"adversarial": {Devices: 12, Seed: 3, Duration: 12 * units.Hour},
}

// TestScenarioVariants runs every built-in scenario through
// CheckVariants under every execution variant but the reference
// (TestScenarioEngineEquivalence holds that one), one named subtest per
// cell, each checkpointed at half its duration. A scenario with no size
// fails the test: adding a scenario requires adding its size.
func TestScenarioVariants(t *testing.T) {
	var names []string
	for name := range Scenarios() {
		if _, ok := variantSizes[name]; !ok {
			t.Fatalf("scenario %q has no size: add one to variantSizes", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := variantSizes[name]
		cfg.Scenario, cfg.Workers = Scenarios()[name], 2
		cfg.CheckpointEvery = cfg.Duration / 2
		t.Run(name, func(t *testing.T) {
			for _, v := range []Variant{VaryWorkers, VaryShards, VaryResume, VaryStream} {
				t.Run(v.String(), func(t *testing.T) {
					if _, _, err := CheckVariants(cfg, v); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}
