package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// Fig12Options parameterizes the background-application experiment
// (§6.3).
type Fig12Options struct {
	// ForegroundRate is 137 mW for Fig. 12a (exactly the CPU's cost) or
	// 300 mW for Fig. 12b (surplus: demonstrates hoarding).
	ForegroundRate units.Power
	// BackgroundRate is the shared background budget (14 mW).
	BackgroundRate units.Power
	// Duration of the run (60 s).
	Duration units.Time
	// Reference builds the kernels on the reference configuration
	// (kernel.Config.Reference), for the engine-equivalence tests.
	Reference bool
}

// DefaultFig12aOptions matches Figure 12a.
func DefaultFig12aOptions() Fig12Options {
	return Fig12Options{
		ForegroundRate: units.Milliwatts(137),
		BackgroundRate: units.Milliwatts(14),
		Duration:       60 * units.Second,
	}
}

// DefaultFig12bOptions matches Figure 12b.
func DefaultFig12bOptions() Fig12Options {
	o := DefaultFig12aOptions()
	o.ForegroundRate = units.Milliwatts(300)
	return o
}

// Fig12Foreground regenerates Figure 12: two spinners under the task
// manager; A foregrounded during 10–20 s, B during 30–40 s.
func Fig12Foreground(opts Fig12Options) Result {
	k := kernel.New(kernel.Config{Seed: 12, Reference: opts.Reference}) // decay ON: it caps hoarding
	tm, err := apps.NewTaskManager(k, k.Root, k.KernelPriv(), k.Battery(), apps.TaskManagerConfig{
		ForegroundRate: opts.ForegroundRate,
		BackgroundRate: opts.BackgroundRate,
	})
	if err != nil {
		panic(err)
	}
	perApp := opts.BackgroundRate / 2
	a, err := tm.Manage("A", perApp)
	if err != nil {
		panic(err)
	}
	b, err := tm.Manage("B", perApp)
	if err != nil {
		panic(err)
	}
	sA := sampleThread(k, "A", a.Thread)
	sB := sampleThread(k, "B", b.Thread)

	set := func(at units.Time, name string) {
		k.Eng.At(at, func(*sim.Engine) {
			if err := tm.SetForeground(name); err != nil {
				panic(err)
			}
		})
	}
	set(10*units.Second, "A")
	set(20*units.Second, "")
	set(30*units.Second, "B")
	set(40*units.Second, "")
	k.Run(opts.Duration)

	sec := units.Second
	window := func(s *trace.Series, from, to units.Time) units.Power {
		return units.Power(int64(s.MeanOver(from, to)))
	}
	aBg := window(sA.series, 2*sec, 9*sec)
	aFg := window(sA.series, 12*sec, 19*sec)
	aPost := window(sA.series, 22*sec, 29*sec)
	bDuringAFg := window(sB.series, 12*sec, 19*sec)
	bFg := window(sB.series, 32*sec, 39*sec)
	aDuringBFg := window(sA.series, 32*sec, 39*sec)
	bPost := window(sB.series, 42*sec, 50*sec)

	id, title := "fig12a", "Foreground/background control, 137 mW foreground tap"
	hoarding := opts.ForegroundRate > units.Milliwatts(137)
	if hoarding {
		id, title = "fig12b", "Foreground/background control, 300 mW foreground tap (hoarding)"
	}
	res := Result{ID: id, Title: title}
	res.Series = []*trace.Series{sA.series, sB.series}
	res.Tables = append(res.Tables, Table{
		Title:  "Mean estimated power by window (mW)",
		Header: []string{"window", "A", "B"},
		Rows: [][]string{
			{"0-10s (both bg)", fmt.Sprintf("%.1f", aBg.Milliwatts()), fmt.Sprintf("%.1f", window(sB.series, 2*sec, 9*sec).Milliwatts())},
			{"10-20s (A fg)", fmt.Sprintf("%.1f", aFg.Milliwatts()), fmt.Sprintf("%.1f", bDuringAFg.Milliwatts())},
			{"20-30s (both bg)", fmt.Sprintf("%.1f", aPost.Milliwatts()), fmt.Sprintf("%.1f", window(sB.series, 22*sec, 29*sec).Milliwatts())},
			{"30-40s (B fg)", fmt.Sprintf("%.1f", aDuringBFg.Milliwatts()), fmt.Sprintf("%.1f", bFg.Milliwatts())},
			{"40-60s (both bg)", fmt.Sprintf("%.1f", window(sA.series, 42*sec, 50*sec).Milliwatts()), fmt.Sprintf("%.1f", bPost.Milliwatts())},
		},
	})

	if !hoarding {
		res.Headline = fmt.Sprintf("fg app gets %.0f mW, bg pair %.0f+%.0f mW; clean hand-offs",
			aFg.Milliwatts(), aBg.Milliwatts(), bDuringAFg.Milliwatts())
		res.Checks = append(res.Checks,
			check("background pair shares 14 mW (≈7 mW each)", "≈7 mW each",
				within(aBg, perApp, 30), "A %.1f mW", aBg.Milliwatts()),
			check("foreground app runs the CPU flat out", "≈137(+7) mW",
				aFg >= units.Milliwatts(130) && aFg <= units.Milliwatts(150),
				"%.1f mW", aFg.Milliwatts()),
			check("app returns to background share immediately (no stored surplus)",
				"≈14 mW right after 20 s",
				aPost <= units.Milliwatts(25), "%.1f mW", aPost.Milliwatts()),
			check("B confined while A foregrounded", "≈7 mW",
				bDuringAFg <= units.Milliwatts(12), "%.1f mW", bDuringAFg.Milliwatts()),
		)
	} else {
		res.Headline = fmt.Sprintf("ex-foreground A keeps burning stored energy (%.0f mW after fg); A and B split CPU 50/50 during B's turn (%.0f vs %.0f mW)",
			aPost.Milliwatts(), aDuringBFg.Milliwatts(), bFg.Milliwatts())
		res.Checks = append(res.Checks,
			check("A hoards: elevated draw persists after its foreground window",
				"≈90-137 mW after 20 s", aPost >= units.Milliwatts(60),
				"%.1f mW", aPost.Milliwatts()),
			check("A competes 50/50 with foregrounded B", "≈68 mW each",
				within(aDuringBFg, units.Microwatt*68500, 30) && within(bFg, units.Microwatt*68500, 35),
				"A %.1f, B %.1f mW", aDuringBFg.Milliwatts(), bFg.Milliwatts()),
			check("B burns its own hoard after returning to background",
				"≈90% CPU until exhausted", bPost >= units.Milliwatts(60),
				"%.1f mW", bPost.Milliwatts()),
		)
	}
	return res
}
