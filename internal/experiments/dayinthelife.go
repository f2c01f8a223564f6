package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/fleet"
	"repro/internal/units"
)

// DayInTheLifeOptions parameterizes the day-in-the-life fleet
// experiment.
type DayInTheLifeOptions struct {
	// Devices is the mixed-fleet size.
	Devices int
	// Duration is the simulated day length.
	Duration units.Time
	// Seed is the fleet master seed; zero selects the registered
	// default (1), like the other fields.
	Seed int64
}

// DefaultDayInTheLifeOptions returns the registered scale: a hundred
// phones over a full virtual day.
func DefaultDayInTheLifeOptions() DayInTheLifeOptions {
	return DayInTheLifeOptions{Devices: 100, Duration: 24 * units.Hour, Seed: 1}
}

// DayInTheLife exercises the composable scenario subsystem end to end:
// a heterogeneous fleet runs the weighted day-in-the-life mix (idle,
// commuter, chatty days composed from screen/call/SMS/browse/poller
// phases), and the shape checks pin the properties the subsystem is
// built on — idle-dominant days must ride the quiescent fast path
// (executed instants ≪ simulated ticks), phase deltas must reproduce
// the §4.2 power model (backlight +555 mW; the modem's call draw while
// a call is active), and the report must be byte-identical across
// worker counts.
func DayInTheLife(opts DayInTheLifeOptions) Result {
	res := Result{
		ID:    "dayinthelife",
		Title: "Day-in-the-life fleet mix (composable scenarios over §6 workloads)",
	}
	if opts.Devices <= 0 {
		opts.Devices = DefaultDayInTheLifeOptions().Devices
	}
	if opts.Duration <= 0 {
		opts.Duration = DefaultDayInTheLifeOptions().Duration
	}
	if opts.Seed == 0 {
		opts.Seed = DefaultDayInTheLifeOptions().Seed
	}

	cfg := fleet.Config{
		Devices:     opts.Devices,
		Seed:        opts.Seed,
		Duration:    opts.Duration,
		Workers:     1,
		Scenario:    fleet.DayInTheLife(),
		KeepResults: true,
	}
	rep, err := fleet.Run(cfg)
	if err != nil {
		res.Headline = "fleet run failed: " + err.Error()
		res.Checks = append(res.Checks, check("fleet runs", "completes", false, "%v", err))
		return res
	}

	// Worker-count invariance: the same config on a different pool
	// shape must produce the identical JSON report.
	cfg.Workers = 3
	rep3, err := fleet.Run(cfg)
	if err != nil {
		res.Checks = append(res.Checks, check("fleet runs", "completes", false, "%v", err))
		return res
	}
	j1, err1 := rep.JSON(true)
	j3, err3 := rep3.JSON(true)
	deterministic := err1 == nil && err3 == nil && bytes.Equal(j1, j3)

	tbl := Table{
		Title:  fmt.Sprintf("Mix buckets, %d devices × %v (seed %d)", opts.Devices, opts.Duration, opts.Seed),
		Header: []string{"bucket", "devices", "mean drawn", "life p50", "polls", "pages", "sms", "calls", "mean instants"},
	}
	buckets := map[string]fleet.Bucket{}
	for _, b := range rep.Buckets {
		buckets[b.Name] = b
		life := "-"
		if b.Dead > 0 {
			life = b.LifeP50.String()
		}
		tbl.Rows = append(tbl.Rows, []string{
			b.Name, fmt.Sprint(b.Devices), b.MeanConsumed.String(), life,
			fmt.Sprint(b.Polls), fmt.Sprint(b.Pages), fmt.Sprint(b.SMSSent),
			fmt.Sprint(b.Calls), fmt.Sprint(b.Mean.EngineSteps),
		})
	}
	res.Tables = append(res.Tables, tbl)

	// Shape check 1: the idle-dominant bucket rides the quiescent fast
	// path. Each device simulates until death or the horizon; the
	// engine must have visited well under 1/50th of those ticks.
	idle, okIdle := buckets["idle-day"]
	var idleRatio float64
	if okIdle && idle.Mean.EngineSteps > 0 {
		span := opts.Duration
		if idle.Dead > 0 && idle.LifeP50 > 0 {
			span = idle.LifeP50
		}
		ticks := uint64(span / units.Millisecond)
		idleRatio = float64(ticks) / float64(idle.Mean.EngineSteps)
	}
	res.Checks = append(res.Checks, check(
		"idle-dominant day rides the quiescent fast path",
		"executed instants ≪ ticks (≥ 50x)",
		okIdle && idleRatio >= 50,
		"%.0fx fewer instants than ticks", idleRatio))

	// Shape check 2: population heterogeneity — every bucket of the
	// mix is represented and shows its signature activity.
	commuter, okC := buckets["commuter-day"]
	chatty, okCh := buckets["chatty-day"]
	res.Checks = append(res.Checks, check(
		"mix assigns every bucket its signature workload",
		"commuter polls, chatty calls+SMS, idle neither",
		okIdle && okC && okCh &&
			commuter.Polls > 0 && chatty.Calls > 0 && chatty.SMSSent > 0 &&
			idle.Polls == 0 && idle.Calls == 0 && idle.Activations == 0,
		"commuter polls %d, chatty calls %d sms %d, idle activations %d",
		commuter.Polls, chatty.Calls, chatty.SMSSent, idle.Activations))

	// Shape check 3: determinism across worker counts.
	res.Checks = append(res.Checks, check(
		"report is byte-identical across worker counts",
		"identical JSON for workers=1 and workers=3",
		deterministic, "identical=%v", deterministic))

	// Shape checks 4+5: the phase primitives reproduce the §4.2 power
	// model. A one-hour screen session adds backlight × 1 h; a two-
	// minute call adds the modem's call draw × 2 min (plus sub-percent
	// scheduler and setup costs).
	screenDelta := phaseDelta(opts.Seed, 2*units.Hour, fleet.Phase{
		Workload: fleet.Screen{}, Start: 30 * units.Minute, Duration: units.Hour,
	})
	wantScreen := units.Milliwatts(555).Over(units.Hour)
	res.Checks = append(res.Checks, check(
		"screen phase adds backlight power (§4.2: +555 mW)",
		fmt.Sprintf("+%v over an idle day", wantScreen),
		withinEnergy(screenDelta, wantScreen, 1),
		"+%v for a 1 h session", screenDelta))

	callDelta := phaseDelta(opts.Seed, 30*units.Minute, fleet.Phase{
		Workload: fleet.Call{CallTime: 2 * units.Minute}, Start: 5 * units.Minute, Duration: 5 * units.Minute,
	})
	wantCall := units.Milliwatts(800).Over(2 * units.Minute)
	res.Checks = append(res.Checks, check(
		"call phase adds the modem's call draw (800 mW while active)",
		fmt.Sprintf("≈ +%v over an idle half hour", wantCall),
		withinEnergy(callDelta, wantCall, 3),
		"+%v for a 2 min call", callDelta))

	res.Headline = fmt.Sprintf(
		"%d-device day: %d dead (p50 life %v); idle bucket %0.fx fewer instants than ticks; screen +%v/h, call +%v/2 min",
		rep.Devices, rep.Dead, rep.LifeP50, idleRatio, screenDelta, callDelta)
	return res
}

// phaseDelta measures the consumed-energy delta a single phase adds to
// an otherwise idle single-device run of the given length.
func phaseDelta(seed int64, duration units.Time, ph fleet.Phase) units.Energy {
	run := func(phases ...fleet.Phase) units.Energy {
		rep, err := fleet.Run(fleet.Config{
			Devices:     1,
			Seed:        seed,
			Duration:    duration,
			Workers:     1,
			Scenario:    fleet.Compose{Label: "probe", Phases: phases},
			KeepResults: true,
		})
		if err != nil {
			return -1
		}
		return rep.Results[0].Consumed
	}
	baseline := run()
	withPhase := run(ph)
	if baseline < 0 || withPhase < 0 {
		return -1
	}
	return withPhase - baseline
}

// withinEnergy reports |got−want| ≤ tolPct% of want.
func withinEnergy(got, want units.Energy, tolPct int64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return int64(diff)*100 <= int64(want)*tolPct
}
