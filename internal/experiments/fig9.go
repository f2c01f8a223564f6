package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// Fig9Options parameterizes the isolation experiment.
type Fig9Options struct {
	// Duration of the run (60 s in the figure).
	Duration units.Time
	// ShareRate is the per-process tap (≈68.5 mW: half the 137 mW CPU).
	ShareRate units.Power
	// Fork1At and Fork2At are B's fork instants (≈5 s and ≈10 s).
	Fork1At, Fork2At units.Time
	// Reference builds the kernels on the reference configuration
	// (kernel.Config.Reference), for the engine-equivalence tests.
	Reference bool
}

// DefaultFig9Options matches the figure.
func DefaultFig9Options() Fig9Options {
	return Fig9Options{
		Duration:  60 * units.Second,
		ShareRate: units.Microwatt * 68500,
		Fork1At:   5 * units.Second,
		Fork2At:   10 * units.Second,
	}
}

// powerSampler records a thread's CPU power per 1 s window — exactly
// Cinder's accounting estimate, the quantity Fig. 9 stacks.
type powerSampler struct {
	series *trace.Series
	last   units.Energy
}

func sampleThread(k *kernel.Kernel, name string, th *sched.Thread) *powerSampler {
	ps := &powerSampler{series: trace.NewSeries(name, "µW")}
	k.Eng.Every("sample:"+name, units.Second, func(e *sim.Engine) {
		cur := th.CPUConsumed()
		ps.series.Add(e.Now(), int64((cur - ps.last).DividedBy(units.Second)))
		ps.last = cur
	})
	return ps
}

// Fig9Isolation regenerates Figure 9: processes A and B each get half
// the CPU's power; B forks B1 and B2, subdividing its own share, and A
// is unaffected.
func Fig9Isolation(opts Fig9Options) Result {
	k := kernel.New(kernel.Config{Seed: 9, DecayHalfLife: -1, Reference: opts.Reference})

	a, err := apps.NewSpinner(k, k.Root, "A", k.KernelPriv(), k.Battery(), opts.ShareRate, labelPublic())
	if err != nil {
		panic(err)
	}
	b, err := apps.NewForker(k, k.Root, "B", k.KernelPriv(), k.Battery(), opts.ShareRate)
	if err != nil {
		panic(err)
	}
	sA := sampleThread(k, "A", a.Thread)
	sB := sampleThread(k, "B", b.Thread)
	var sB1, sB2 *powerSampler
	quarter := opts.ShareRate / 4

	k.Eng.At(opts.Fork1At, func(*sim.Engine) {
		c, err := b.ForkChild("B1", quarter)
		if err != nil {
			panic(err)
		}
		sB1 = sampleThread(k, "B1", c.Thread)
	})
	k.Eng.At(opts.Fork2At, func(*sim.Engine) {
		c, err := b.ForkChild("B2", quarter)
		if err != nil {
			panic(err)
		}
		sB2 = sampleThread(k, "B2", c.Thread)
	})
	k.Run(opts.Duration)

	res := Result{
		ID:    "fig9",
		Title: "CPU energy accounting during isolated process execution (A vs forking B)",
	}
	res.Series = []*trace.Series{sA.series, sB.series}
	if sB1 != nil {
		res.Series = append(res.Series, sB1.series)
	}
	if sB2 != nil {
		res.Series = append(res.Series, sB2.series)
	}

	// A's power before and after the forks.
	aEarly := units.Power(int64(sA.series.MeanOver(units.Second, opts.Fork1At)))
	aLate := units.Power(int64(sA.series.MeanOver(opts.Fork2At+5*units.Second, opts.Duration)))
	bLate := units.Power(int64(sB.series.MeanOver(opts.Fork2At+5*units.Second, opts.Duration)))
	var b1Late, b2Late units.Power
	if sB1 != nil {
		b1Late = units.Power(int64(sB1.series.MeanOver(opts.Fork2At+5*units.Second, opts.Duration)))
	}
	if sB2 != nil {
		b2Late = units.Power(int64(sB2.series.MeanOver(opts.Fork2At+5*units.Second, opts.Duration)))
	}
	sumLate := aLate + bLate + b1Late + b2Late

	stacked := Table{
		Title:  "Mean estimated power by phase (mW)",
		Header: []string{"process", "before forks", "after both forks"},
		Rows: [][]string{
			{"A", fmt.Sprintf("%.1f", aEarly.Milliwatts()), fmt.Sprintf("%.1f", aLate.Milliwatts())},
			{"B", fmt.Sprintf("%.1f", units.Power(int64(sB.series.MeanOver(units.Second, opts.Fork1At))).Milliwatts()), fmt.Sprintf("%.1f", bLate.Milliwatts())},
			{"B1", "-", fmt.Sprintf("%.1f", b1Late.Milliwatts())},
			{"B2", "-", fmt.Sprintf("%.1f", b2Late.Milliwatts())},
			{"sum", "", fmt.Sprintf("%.1f", sumLate.Milliwatts())},
		},
	}
	res.Tables = append(res.Tables, stacked)
	res.Headline = fmt.Sprintf("A holds %.1f → %.1f mW across B's forks; Σ=%.1f mW (CPU costs 137 mW)",
		aEarly.Milliwatts(), aLate.Milliwatts(), sumLate.Milliwatts())

	half := opts.ShareRate
	res.Checks = append(res.Checks,
		check("A isolated from B's forks (≈68 mW throughout)", "≈68 mW flat",
			within(aLate, half, 10) && within(aEarly, half, 10),
			"%.1f → %.1f mW", aEarly.Milliwatts(), aLate.Milliwatts()),
		check("B subdivides to half its share after two quarter-taps", "≈34 mW",
			within(bLate, half/2, 15), "%.1f mW", bLate.Milliwatts()),
		check("children run at ≈17 mW each", "≈17 mW",
			within(b1Late, quarter, 20) && within(b2Late, quarter, 20),
			"B1 %.1f, B2 %.1f mW", b1Late.Milliwatts(), b2Late.Milliwatts()),
		check("sum matches measured CPU draw ≈137–139 mW", "≈139 mW",
			within(sumLate, 137*units.Milliwatt, 6), "%.1f mW", sumLate.Milliwatts()),
	)
	return res
}

// within reports |got−want| ≤ pct% of want.
func within(got, want units.Power, pct int64) bool {
	diff := int64(got - want)
	if diff < 0 {
		diff = -diff
	}
	return diff*100 <= int64(want)*pct
}
