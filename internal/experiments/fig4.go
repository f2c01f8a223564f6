package experiments

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/label"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// Fig4Options parameterizes the activation-cost experiment.
type Fig4Options struct {
	// SendInterval is the gap between 1-byte packets (40 s in Fig. 4,
	// so each activation completes a full sleep cycle).
	SendInterval units.Time
	// Activations is the number of power-up episodes to record.
	Activations int
	// Reference builds the kernels on the reference configuration
	// (kernel.Config.Reference), for the engine-equivalence tests.
	Reference bool
}

// DefaultFig4Options matches the paper's ≈400 s trace.
func DefaultFig4Options() Fig4Options {
	return Fig4Options{SendInterval: 40 * units.Second, Activations: 10}
}

// Fig4RadioActivation regenerates Figure 4: the power trace of repeated
// radio activations, one 1-byte UDP packet every 40 s, with the
// per-activation energy spread the paper observed (9.5 J mean, 8.8 min,
// 11.9 max, occasional outliers).
func Fig4RadioActivation(opts Fig4Options) Result {
	k := kernel.New(kernel.Config{Seed: 1701, DecayHalfLife: -1, Reference: opts.Reference})
	r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{
		Profile: k.Profile,
		Jitter:  true,
		Trace:   true,
	})
	k.AddDevice(r)
	meter := k.NewMeter("supply")

	// Each 40 s cycle completes a full activation episode (ramp + 20 s
	// plateau + sleep) before the next send, so per-activation overhead
	// is the cumulative radio energy delta between consecutive sends.
	cum := func() units.Energy {
		st := r.Stats()
		return st.StateEnergy + st.DataEnergy
	}
	var marks []units.Energy
	for i := 0; i < opts.Activations; i++ {
		at := units.Second + units.Time(i)*opts.SendInterval
		k.Eng.At(at, func(e *sim.Engine) {
			marks = append(marks, cum())
			r.Send(e.Now(), 1, nil, label.Priv{})
		})
	}
	k.Run(units.Second + units.Time(opts.Activations)*opts.SendInterval)
	marks = append(marks, cum())
	perActivation := make([]units.Energy, 0, opts.Activations)
	for i := 1; i < len(marks); i++ {
		perActivation = append(perActivation, marks[i]-marks[i-1])
	}

	var min, max, sum units.Energy
	min = units.MaxEnergy
	for _, e := range perActivation {
		sum += e
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	avg := sum / units.Energy(len(perActivation))

	tbl := Table{
		Title:  "Per-activation energy above baseline",
		Header: []string{"activation", "joules"},
	}
	for i, e := range perActivation {
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprintf("%d", i+1), fmt.Sprintf("%.2f", e.Joules())})
	}

	res := Result{
		ID:       "fig4",
		Title:    "Radio activation power draw (1 B packet every 40 s)",
		Headline: fmt.Sprintf("avg %.2f J per activation (min %.2f, max %.2f) over %d activations", avg.Joules(), min.Joules(), max.Joules(), len(perActivation)),
		Tables:   []Table{tbl},
		Series:   []*trace.Series{meter.Series(), r.StateSeries()},
	}
	res.Checks = append(res.Checks,
		check("mean activation overhead ≈9.5 J", "9.5 J",
			avg >= units.Joules(9.0) && avg <= units.Joules(10.2),
			"%.2f J", avg.Joules()),
		check("minimum ≥ ≈8.8 J", "8.8 J",
			min >= units.Joules(8.3), "%.2f J", min.Joules()),
		check("maximum ≤ ≈11.9 J (occasional outliers)", "11.9 J",
			max <= units.Joules(12.4) && max > avg, "%.2f J", max.Joules()),
		check("device sleeps after 20 s of inactivity", "20 s timeout",
			sleepsAfterTimeout(r), "state returns to sleep each cycle"),
	)
	return res
}

// sleepsAfterTimeout verifies the state series alternates back to sleep
// between activations.
func sleepsAfterTimeout(r *radio.Radio) bool {
	pts := r.StateSeries().Points()
	if len(pts) < 4 {
		return false
	}
	sleeps := 0
	for _, p := range pts {
		if radio.State(p.V) == radio.Sleep {
			sleeps++
		}
	}
	return sleeps >= 2
}
