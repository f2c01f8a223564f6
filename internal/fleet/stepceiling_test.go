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
// The same day pins the mix's shape: the idle-day bucket rides the
// quiescent fast path (at least 50× fewer executed instants than ticks
// over its life), and each bucket shows its signature workload —
// commuters poll, chatty days call and text, idle days do neither.
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
	byName := map[string]Bucket{}
	for _, b := range rep.Buckets {
		byName[b.Name] = b
	}
	idle, commuter, chatty := byName["idle-day"], byName["commuter-day"], byName["chatty-day"]
	if idle.Devices == 0 || commuter.Devices == 0 || chatty.Devices == 0 {
		t.Fatalf("missing buckets: idle=%d commuter=%d chatty=%d devices", idle.Devices, commuter.Devices, chatty.Devices)
	}
	for _, b := range []Bucket{chatty, commuter} {
		if b.MeanDiagnostics.EngineSteps >= ceiling {
			t.Errorf("bucket %q: mean %d executed instants per device-day, ceiling %d",
				b.Name, b.MeanDiagnostics.EngineSteps, ceiling)
		}
	}

	life := rep.Duration
	if idle.Dead > 0 && idle.LifeP50 > 0 {
		life = idle.LifeP50
	}
	if ticks := uint64(life / units.Millisecond); idle.MeanDiagnostics.EngineSteps*50 > ticks {
		t.Errorf("idle-day: mean %d executed instants over %d ticks, want at least 50× fewer",
			idle.MeanDiagnostics.EngineSteps, ticks)
	}
	if commuter.Polls == 0 || chatty.Calls == 0 || chatty.SMSSent == 0 {
		t.Errorf("signature workloads missing: commuter polls %d, chatty calls %d sms %d",
			commuter.Polls, chatty.Calls, chatty.SMSSent)
	}
	if idle.Polls != 0 || idle.Calls != 0 || idle.Activations != 0 {
		t.Errorf("idle-day not idle: polls %d, calls %d, radio activations %d",
			idle.Polls, idle.Calls, idle.Activations)
	}
}
