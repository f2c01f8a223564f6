package fleet

import (
	"testing"

	"repro/internal/units"
)

// TestBusyBucketStepCeiling is the busy-path regression gate: the mean
// executed-instant count for the chatty and commuter day-in-the-life
// buckets over 24 h must stay under 10k instants per device-day. Before
// closed-form netd sweep settlement and the throttled-quantum scheduler
// skip these buckets sat at ~8.3k and ~12.5k; they now run at ~2.7k and
// ~5.9k, so a regression that reintroduces per-period task firings on
// the busy path (sweeps at 100 ms, throttled scheduler quanta at every
// tap batch) trips this long before it reaches the recorded ceiling.
func TestBusyBucketStepCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const ceiling = 10_000
	rep, err := Run(Config{
		Devices:  256,
		Seed:     7,
		Duration: 24 * units.Hour,
		Workers:  4,
		Scenario: DayInTheLife(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, b := range rep.Buckets {
		switch b.Name {
		case "chatty-day", "commuter-day":
			checked++
			if b.Mean.EngineSteps >= ceiling {
				t.Errorf("bucket %q: mean %d executed instants per device-day, ceiling %d",
					b.Name, b.Mean.EngineSteps, ceiling)
			}
		}
	}
	if checked != 2 {
		t.Fatalf("expected chatty-day and commuter-day buckets, checked %d of %d", checked, len(rep.Buckets))
	}
}
