package experiments

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/label"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/units"
)

// Fig3Options parameterizes the radio flow-energy grid.
type Fig3Options struct {
	// Sizes are the packet payloads; the paper uses 1, 750 and 1500 B.
	Sizes []int
	// Rates are the packet rates in packets/second; the paper sweeps
	// 0–40 pps.
	Rates []int
	// FlowDuration is the flow length (10 s in the paper).
	FlowDuration units.Time
	// Reference builds the kernels on the reference configuration
	// (kernel.Config.Reference), for the engine-equivalence tests.
	Reference bool
}

// DefaultFig3Options returns the paper's grid.
func DefaultFig3Options() Fig3Options {
	return Fig3Options{
		Sizes:        []int{1, 750, 1500},
		Rates:        []int{1, 5, 10, 20, 30, 40},
		FlowDuration: 10 * units.Second,
	}
}

// flowEnergy runs one UDP-echo flow against a fresh radio and returns
// its total above-baseline energy (activation + plateau + data), i.e.
// what Fig. 3 plots.
func flowEnergy(size, pps int, dur units.Time, reference bool) units.Energy {
	k := kernel.New(kernel.Config{Seed: 11, DecayHalfLife: -1, Reference: reference})
	r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{Profile: k.Profile})
	k.AddDevice(r)

	// Packets at the given rate for the flow duration; the echo server
	// "returns the same contents" (§4.3).
	interval := units.Second / units.Time(pps)
	start := units.Second
	for t := units.Time(0); t < dur; t += interval {
		at := start + t
		k.Eng.At(at, func(e *sim.Engine) {
			r.Exchange(e.Now(), size, size, nil, label.Priv{}, nil)
		})
	}
	// Run until well past the idle timeout so the full episode is
	// captured.
	k.Run(start + dur + k.Profile.RadioIdleTimeout + 10*units.Second)
	st := r.Stats()
	return st.StateEnergy + st.DataEnergy
}

// Fig3RadioFlows regenerates Figure 3: flow energy across packet sizes
// and rates.
func Fig3RadioFlows(opts Fig3Options) Result {
	res := Result{
		ID:    "fig3",
		Title: "Radio data path energy for 10 s flows across packet sizes and rates",
	}
	tbl := Table{
		Title:  "Joules per 10 s flow (rows: bytes/packet; cols: packets/s)",
		Header: []string{"bytes\\pps"},
	}
	for _, r := range opts.Rates {
		tbl.Header = append(tbl.Header, fmt.Sprintf("%d", r))
	}

	var min, max, sum units.Energy
	min = units.MaxEnergy
	n := 0
	perSize := map[int][]units.Energy{}
	for _, size := range opts.Sizes {
		row := []string{fmt.Sprintf("%d", size)}
		for _, pps := range opts.Rates {
			e := flowEnergy(size, pps, opts.FlowDuration, opts.Reference)
			perSize[size] = append(perSize[size], e)
			row = append(row, fmt.Sprintf("%.1f", e.Joules()))
			sum += e
			n++
			if e < min {
				min = e
			}
			if e > max {
				max = e
			}
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	avg := sum / units.Energy(n)
	res.Tables = append(res.Tables, tbl)
	res.Headline = fmt.Sprintf("avg %.1f J (min %.1f, max %.1f) — overhead dominates short flows",
		avg.Joules(), min.Joules(), max.Joules())

	// Shape checks against the paper's published summary: avg 14.3 J
	// (min 10.5, max 17.6); "data rate has only a small effect".
	res.Checks = append(res.Checks,
		check("average flow cost ≈14.3 J", "14.3 J",
			avg >= 11*units.Joule && avg <= 18*units.Joule,
			"%.1f J", avg.Joules()),
		check("minimum ≈10.5 J (activation floor)", "10.5 J",
			min >= 9*units.Joule && min <= 14*units.Joule,
			"%.1f J", min.Joules()),
		check("maximum ≈17.6 J", "17.6 J",
			max >= 15*units.Joule && max <= 20*units.Joule,
			"%.1f J", max.Joules()),
		check("overhead dominates: max/min < 2 despite 60000× byte-rate spread",
			"≈1.7×", max < 2*min, "%.2f×", float64(max)/float64(min)),
	)
	// Monotone in size at the top rate: larger packets cost more.
	topRateIdx := len(opts.Rates) - 1
	mono := true
	for i := 1; i < len(opts.Sizes); i++ {
		if perSize[opts.Sizes[i]][topRateIdx] < perSize[opts.Sizes[i-1]][topRateIdx] {
			mono = false
		}
	}
	res.Checks = append(res.Checks,
		check("cost grows with packet size at 40 pps", "1 < 750 < 1500 B",
			mono, "monotone=%v", mono))
	return res
}
