package fleet

import (
	"strings"
	"testing"

	"repro/internal/units"
)

// TestComposeTeardownRestoresQuiescence is the fleet-level face of the
// tap-lifecycle fix: a composed day whose only workload is a short
// poller window must quiesce again after the phase container is torn
// down. Before the releaseReserve fix the orphaned poller taps stayed
// in the graph's active set, the 10 ms batch tasks never parked, and the idle
// remainder of the day ran tick-by-tick.
func TestComposeTeardownRestoresQuiescence(t *testing.T) {
	day := Compose{
		Label: "burst-then-idle",
		Phases: []Phase{
			{Workload: Pollers{Interval: 30 * units.Second}, Start: 0, Duration: 2 * units.Minute},
		},
	}
	rep, err := Run(Config{
		Devices:     1,
		Seed:        11,
		Duration:    20 * units.Minute,
		Workers:     1,
		Scenario:    day,
		KeepResults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Polls == 0 {
		t.Fatal("poller window completed no polls")
	}
	ticks := uint64(20 * units.Minute / units.Millisecond)
	if r.EngineSteps*20 >= ticks {
		t.Fatalf("composed day executed %d instants over %d ticks — teardown did not restore quiescence",
			r.EngineSteps, ticks)
	}
}

// TestComposePhaseJitterSpreadsDevices asserts per-device jitter comes
// from the construction stream: devices of the same fleet get different
// phase starts, while re-running the fleet reproduces them exactly. A
// total-energy read-out is shift-invariant, so the phase is jittered
// across the run horizon — devices whose screen session lands later
// get it clipped (or miss it), and their totals must spread.
func TestComposePhaseJitterSpreadsDevices(t *testing.T) {
	day := Compose{
		Label: "jittered",
		Phases: []Phase{
			{Workload: Screen{}, Start: 0, Duration: 5 * units.Minute, Jitter: 20 * units.Minute},
		},
	}
	run := func() Report {
		rep, err := Run(Config{
			Devices: 6, Seed: 5, Duration: 15 * units.Minute, Workers: 2, Scenario: day,
			KeepResults: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	varied := false
	for i := 1; i < len(a.Results); i++ {
		if a.Results[i].Consumed != a.Results[0].Consumed {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jittered screen phases produced identical devices")
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("jitter is not reproducible: device %d differs across runs", i)
		}
	}
}

// TestOverlappingCallPhases: a Call phase's window-end teardown must
// only hang up its *own* call — an overlapping phase's live call on the
// shared baseband keeps running to full length. The read-out is total
// call energy: two calls of 2 min and 3 min must bill ≈ 800 mW × 5 min
// on top of the idle baseline.
func TestOverlappingCallPhases(t *testing.T) {
	run := func(phases ...Phase) units.Energy {
		rep, err := Run(Config{
			Devices: 1, Seed: 3, Duration: 15 * units.Minute, Workers: 1,
			Scenario:    Compose{Label: "probe", Phases: phases},
			KeepResults: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results[0].Consumed
	}
	baseline := run()
	both := run(
		// A: call 0:00–≈2:04, window closes at 5:00 while B is mid-call.
		Phase{Workload: Call{CallTime: 2 * units.Minute}, Start: 0, Duration: 5 * units.Minute},
		// B: dials at 3:00, active ≈3:04–6:04.
		Phase{Workload: Call{CallTime: 3 * units.Minute}, Start: 3 * units.Minute, Duration: 5 * units.Minute},
	)
	delta := both - baseline
	want := units.Milliwatts(800).Over(5 * units.Minute)
	slack := 5 * units.Joule // setup latencies, dialer CPU, poll rounding
	if delta < want-slack || delta > want+slack {
		t.Fatalf("overlapping calls billed %v above idle, want ≈%v — A's teardown cut B's call?",
			delta, want)
	}
}

// TestCallWindowValidation: a call window without teardown headroom is
// a construction-time error, not a stuck modem at run time.
func TestCallWindowValidation(t *testing.T) {
	day := Compose{
		Label: "tight-call",
		Phases: []Phase{
			{Workload: Call{CallTime: 2 * units.Minute}, Start: 0, Duration: 2 * units.Minute},
		},
	}
	_, err := Run(Config{Devices: 1, Seed: 1, Duration: 5 * units.Minute, Workers: 1, Scenario: day})
	if err == nil || !strings.Contains(err.Error(), "headroom") {
		t.Fatalf("tight call window accepted: err = %v", err)
	}
}

// TestMixValidation covers the combinator's error paths.
func TestMixValidation(t *testing.T) {
	if _, err := Run(Config{Devices: 1, Seed: 1, Duration: units.Second, Workers: 1,
		Scenario: Mix{Label: "empty"}}); err == nil {
		t.Error("weightless mix accepted")
	}
	if _, err := Run(Config{Devices: 1, Seed: 1, Duration: units.Second, Workers: 1,
		Scenario: Mix{Label: "bad", Entries: []MixEntry{{Weight: 1}}}}); err == nil {
		t.Error("nil entry scenario accepted")
	}
	if _, err := Run(Config{Devices: 1, Seed: 1, Duration: units.Second, Workers: 1,
		Scenario: Mix{Label: "neg", Entries: []MixEntry{{Weight: -1, Scenario: IdleScenario{}}}}}); err == nil {
		t.Error("negative weight accepted")
	}
}

// TestBucketStatsMatchDevices: a small day-in-the-life mix, long
// enough that every workload type fires, splits into at least two
// buckets that cover every device, and each bucket's aggregates equal
// the sums of its member devices.
func TestBucketStatsMatchDevices(t *testing.T) {
	rep, err := Run(Config{
		Devices:     12,
		Seed:        9,
		Duration:    4 * units.Hour,
		Workers:     3,
		Scenario:    DayInTheLife(),
		KeepResults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Buckets) < 2 {
		t.Fatalf("mix produced %d buckets, want ≥ 2", len(rep.Buckets))
	}
	covered := 0
	for _, b := range rep.Buckets {
		var consumed units.Energy
		var polls int64
		devices := 0
		for _, r := range rep.Results {
			if r.Scenario != b.Name {
				continue
			}
			devices++
			consumed += r.Consumed
			polls += r.Polls
		}
		if devices != b.Devices || consumed != b.TotalConsumed || polls != b.Polls {
			t.Fatalf("bucket %q (%d devices, %v, %d polls) does not match members (%d, %v, %d)",
				b.Name, b.Devices, b.TotalConsumed, b.Polls, devices, consumed, polls)
		}
		covered += b.Devices
	}
	if covered != rep.Devices {
		t.Fatalf("buckets cover %d devices, want %d", covered, rep.Devices)
	}
}

// TestPhasePowerDeltas: the phase primitives reproduce the §4.2 power
// model. Against an otherwise idle single-device run, a one-hour screen
// session adds the backlight's 555 mW × 1 h (within 1%), and a
// two-minute call adds the modem's 800 mW call draw × 2 min (within 3%:
// scheduler and call-setup costs ride along).
func TestPhasePowerDeltas(t *testing.T) {
	screen := phaseDelta(t, 2*units.Hour, Phase{
		Workload: Screen{}, Start: 30 * units.Minute, Duration: units.Hour,
	})
	if want := units.Milliwatts(555).Over(units.Hour); !withinEnergy(screen, want, 1) {
		t.Errorf("screen phase adds %v for a 1 h session, want %v ± 1%%", screen, want)
	}
	call := phaseDelta(t, 30*units.Minute, Phase{
		Workload: Call{CallTime: 2 * units.Minute}, Start: 5 * units.Minute, Duration: 5 * units.Minute,
	})
	if want := units.Milliwatts(800).Over(2 * units.Minute); !withinEnergy(call, want, 3) {
		t.Errorf("call phase adds %v for a 2 min call, want %v ± 3%%", call, want)
	}
}

// phaseDelta measures the consumed-energy delta a single phase adds to
// an otherwise idle single-device run of the given length.
func phaseDelta(t *testing.T, duration units.Time, ph Phase) units.Energy {
	t.Helper()
	run := func(phases ...Phase) units.Energy {
		rep, err := Run(Config{
			Devices:     1,
			Seed:        1,
			Duration:    duration,
			Workers:     1,
			Scenario:    Compose{Label: "probe", Phases: phases},
			KeepResults: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results[0].Consumed
	}
	return run(ph) - run()
}

// withinEnergy reports |got−want| ≤ tolPct% of want.
func withinEnergy(got, want units.Energy, tolPct int64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return int64(diff)*100 <= int64(want)*tolPct
}
