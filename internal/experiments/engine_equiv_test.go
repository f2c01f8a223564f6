package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/units"
)

// referenceRegistry runs every paper-registry experiment with its
// default options on the reference configuration
// (kernel.Config.Reference), the oracle production is checked against.
var referenceRegistry = map[string]Runner{
	"baseline": func() Result { return BaselineComparison(true) },
	"fig3": func() Result {
		o := DefaultFig3Options()
		o.Reference = true
		return Fig3RadioFlows(o)
	},
	"fig4": func() Result {
		o := DefaultFig4Options()
		o.Reference = true
		return Fig4RadioActivation(o)
	},
	"fig9": func() Result {
		o := DefaultFig9Options()
		o.Reference = true
		return Fig9Isolation(o)
	},
	"fig10": func() Result {
		o := DefaultViewerOptions(false)
		o.Reference = true
		return Fig10ViewerNoScaling(o)
	},
	"fig11": func() Result {
		o := DefaultViewerOptions(true)
		o.Reference = true
		return Fig11ViewerScaling(o)
	},
	"fig12a": func() Result {
		o := DefaultFig12aOptions()
		o.Reference = true
		return Fig12Foreground(o)
	},
	"fig12b": func() Result {
		o := DefaultFig12bOptions()
		o.Reference = true
		return Fig12Foreground(o)
	},
	"table1": func() Result {
		o := DefaultTable1Options()
		o.Reference = true
		return Table1Cooperative(o)
	},
	"gallery":    func() Result { return GraphGallery(true) },
	"powermodel": func() Result { return PowerModel(true) },
}

// TestEngineEquivalence is the differential test behind the next-event
// engine and closed-form settlement: every paper-registry experiment
// must produce a byte-identical Result in production and on the
// reference configuration. Series contents, tables, headlines and
// check outcomes are all compared structurally and as formatted text.
// A missing reference runner fails the test: adding a paper experiment
// requires adding its reference twin.
func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ref, ok := referenceRegistry[name]
			if !ok {
				t.Fatalf("paper experiment %q has no reference runner: add it to referenceRegistry", name)
			}
			oracle, got := ref(), registry[name]()
			if !reflect.DeepEqual(oracle, got) {
				t.Errorf("results diverge between the reference and production")
			}
			if want, text := oracle.Format(true), got.Format(true); text != want {
				t.Errorf("formatted output diverges:\n--- reference ---\n%s\n--- production ---\n%s", want, text)
			}
		})
	}
}

// extendedEquivalence maps each extended-registry experiment to a
// scaled-down fleet configuration carrying its exact semantics (the
// extended experiments are fleet wrappers; their Results embed
// engine-level diagnostics — executed instants — that legitimately
// differ across engines, so equivalence is asserted on the fleet
// report's canonical JSON instead, which carries every energy,
// lifetime and workload quantity). A missing entry fails the test:
// adding an extended experiment requires adding its differential
// harness.
var extendedEquivalence = map[string]fleet.Config{
	"dayinthelife": {
		Devices:  6,
		Seed:     3,
		Duration: 45 * units.Minute,
		Workers:  2,
		Scenario: fleet.DayInTheLife(),
	},
	// 16 h of the heterogeneous week covers its weekday structure —
	// per-device poller cadences over the morning commute, the midday
	// call, the afternoon SMS burst — at a tick count the fixed-tick
	// oracle can still walk.
	"weekinthelife": {
		Devices:  3,
		Seed:     5,
		Duration: 16 * units.Hour,
		Workers:  2,
		Scenario: fleet.WeekInTheLife(),
	},
	// 26 h of the month covers a full overnight charge window (22:30 +
	// 7 h, spanning midnight) plus the metered evening browse, with
	// seed 3 drawing both T60p laptops and Dream phones among the four
	// devices — the charger credit path and the mixed-hardware split
	// both cross the fixed-tick oracle.
	"monthinthelife": {
		Devices:  4,
		Seed:     3,
		Duration: 26 * units.Hour,
		Workers:  2,
		Scenario: fleet.MonthInTheLife(),
	},
	// 16 h of the adversarial day puts all three cohorts (seed 13:
	// lax, two victims, strict) through the hoarder's grab tap, the
	// backward tax and the once-a-minute evasion attempts, with the
	// small-battery hoarders reaching their clamped endgame inside the
	// horizon.
	"adversarial": {
		Devices:  4,
		Seed:     13,
		Duration: 16 * units.Hour,
		Workers:  2,
		Scenario: fleet.AdversarialCohorts(),
	},
	// fig13 reuses the §6.4 kernel-level experiment; its fleet-fidelity
	// stand-in is the poller scenario (the same rss+mail pair per
	// device), long enough for dozens of pooled activations per device
	// to cross the settled busy path in production and the reference.
	"fig13": {
		Devices:  4,
		Seed:     7,
		Duration: 40 * units.Minute,
		Workers:  2,
		Scenario: fleet.PollerScenario{},
	},
}

// TestExtendedEngineEquivalence runs every extended-registry experiment's
// fleet semantics in production and under the reference configuration
// and asserts the canonical reports are byte-identical. A busier
// synthetic mix (every workload primitive compressed into 20 minutes)
// rides along so call, SMS, browse and poller phases all cross the
// settled busy path at differential fidelity.
func TestExtendedEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}

	cases := make(map[string]fleet.Config, len(extendedEquivalence)+1)
	for _, name := range ExtendedNames() {
		cfg, ok := extendedEquivalence[name]
		if !ok {
			t.Fatalf("extended experiment %q has no differential harness: add a scaled fleet config to extendedEquivalence", name)
		}
		cases[name] = cfg
	}
	cases["dense-mix"] = fleet.Config{
		Devices:  4,
		Seed:     9,
		Duration: 20 * units.Minute,
		Workers:  2,
		Scenario: denseMix(),
	}

	for name, cfg := range cases {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			canonical := func(reference bool) []byte {
				run := cfg
				run.Reference = reference
				rep, err := fleet.Run(run)
				if err != nil {
					t.Fatal(err)
				}
				js, err := rep.CanonicalJSON(true)
				if err != nil {
					t.Fatal(err)
				}
				return js
			}
			if oracle, got := canonical(true), canonical(false); !bytes.Equal(oracle, got) {
				t.Errorf("canonical fleet report diverges from the reference\n%s", firstDiff(oracle, got))
			}
		})
	}
}

// denseMix compresses every workload primitive into a 20-minute day so
// the differential test crosses calls, SMS bursts, browsing, pollers and
// screen sessions without simulating hours tick by tick.
func denseMix() fleet.Scenario {
	busy := fleet.Compose{
		Label: "busy",
		Phases: []fleet.Phase{
			{Workload: fleet.Screen{}, Start: 0, Duration: 4 * units.Minute, Jitter: units.Minute},
			{Workload: fleet.Pollers{Interval: units.Minute}, Start: 2 * units.Minute, Duration: 8 * units.Minute, Jitter: units.Minute},
			{Workload: fleet.Browse{Pages: 3}, Start: 5 * units.Minute, Duration: 4 * units.Minute, Jitter: units.Minute},
			{Workload: fleet.Call{CallTime: units.Minute}, Start: 11 * units.Minute, Duration: 2 * units.Minute, Jitter: units.Minute},
			{Workload: fleet.SMSBurst{Count: 2, Interval: 20 * units.Second}, Start: 15 * units.Minute, Duration: 3 * units.Minute, Jitter: units.Minute},
		},
	}
	quiet := fleet.Compose{
		Label: "quiet",
		Phases: []fleet.Phase{
			{Workload: fleet.Screen{}, Start: 3 * units.Minute, Duration: 2 * units.Minute, Jitter: units.Minute},
		},
	}
	return fleet.Mix{
		Label: "dense-mix",
		Entries: []fleet.MixEntry{
			{Weight: 3, Scenario: busy},
			{Weight: 1, Scenario: quiet},
		},
	}
}

// firstDiff renders the first divergent region of two byte slices.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 120
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+120, i+120
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("first divergence at byte %d:\n  oracle: …%s…\n  got:    …%s…", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d bytes", len(a), len(b))
}
