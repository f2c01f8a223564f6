package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/netd"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/units"
)

// Table1Options parameterizes the cooperative-vs-uncooperative radio
// experiment (§6.4, Figures 13/14, Table 1).
type Table1Options struct {
	// Duration is the experiment length (1201 s in the paper).
	Duration units.Time
	// PollInterval is each application's poll period (60 s).
	PollInterval units.Time
	// MailPhase staggers the mail fetcher behind the RSS downloader
	// (15 s).
	MailPhase units.Time
	// AppRate funds each poller: "enough energy to activate the radio
	// every two minutes" each (§6.4) — 9.5 J / 120 s ≈ 79 mW. Pooled,
	// the pair accumulates one activation per minute, which keeps the
	// Fig. 14 sawtooth stable (inflow per cycle ≈ the debit).
	AppRate units.Power
	// ReqBytes/RespBytes size each exchange of a poll session.
	ReqBytes  int
	RespBytes int
	// RSSExchanges/MailExchanges are round trips per poll session: a
	// feed fetch is short, a pop3 conversation longer. The asymmetry
	// makes the uncooperative pollers drift apart (Fig. 13a's staggered
	// activations) because each schedules its next poll one interval
	// after completion.
	RSSExchanges  int
	MailExchanges int
	// RespJitterPct varies response sizes poll to poll.
	RespJitterPct int
	// RTT is the cellular round-trip latency.
	RTT units.Time
	// Reference builds the kernels on the reference configuration
	// (kernel.Config.Reference), for the engine-equivalence tests.
	Reference bool
}

// DefaultTable1Options matches the paper's experiment.
func DefaultTable1Options() Table1Options {
	return Table1Options{
		Duration:      1201 * units.Second,
		PollInterval:  60 * units.Second,
		MailPhase:     15 * units.Second,
		AppRate:       units.Milliwatts(79),
		ReqBytes:      300,
		RespBytes:     12 << 10,
		RSSExchanges:  2,
		MailExchanges: 6, // a pop3 conversation: USER/PASS/STAT/LIST/RETR/QUIT
		RespJitterPct: 50,
		RTT:           500 * units.Millisecond,
	}
}

// coopRun holds one condition's outcome.
type coopRun struct {
	TotalEnergy  units.Energy
	ActiveTime   units.Time
	ActiveEnergy units.Energy
	Activations  int64
	RSSPolls     int
	MailPolls    int
	// RSSAt/MailAt are the poll completion instants — Fig. 13's
	// activity marks (fig13.go plots and shape-checks them).
	RSSAt     []units.Time
	MailAt    []units.Time
	Meter     *trace.Series
	PoolTrace *trace.Series
}

// runCoop executes one condition of the experiment.
func runCoop(opts Table1Options, cooperative bool) coopRun {
	k := kernel.New(kernel.Config{Seed: 13, DecayHalfLife: -1, Reference: opts.Reference})
	r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{
		Profile: k.Profile,
		RTT:     opts.RTT,
		Trace:   true,
	})
	k.AddDevice(r)
	n, err := netd.New(k, r, netd.Config{Cooperative: cooperative})
	if err != nil {
		panic(err)
	}
	meter := k.NewMeter("supply")

	rss, err := apps.NewPoller(k, k.Root, "rss", k.KernelPriv(), k.Battery(), apps.PollerConfig{
		Interval: opts.PollInterval, Phase: units.Second,
		Rate: opts.AppRate, ReqBytes: opts.ReqBytes, RespBytes: opts.RespBytes,
		Exchanges: opts.RSSExchanges, RespJitterPct: opts.RespJitterPct,
	})
	if err != nil {
		panic(err)
	}
	mail, err := apps.NewPoller(k, k.Root, "mail", k.KernelPriv(), k.Battery(), apps.PollerConfig{
		Interval: opts.PollInterval, Phase: units.Second + opts.MailPhase,
		Rate: opts.AppRate, ReqBytes: opts.ReqBytes, RespBytes: opts.RespBytes,
		Exchanges: opts.MailExchanges, RespJitterPct: opts.RespJitterPct,
	})
	if err != nil {
		panic(err)
	}
	k.Run(opts.Duration)

	run := coopRun{
		TotalEnergy: k.Consumed(),
		Activations: r.Stats().Activations,
		RSSPolls:    rss.Completed,
		MailPolls:   mail.Completed,
		RSSAt:       rss.CompletedAt,
		MailAt:      mail.CompletedAt,
		Meter:       meter.Series(),
		PoolTrace:   n.PoolTrace(),
	}
	run.ActiveTime = r.Stats().ActiveTime
	run.ActiveEnergy = activeEnergy(meter.Series(), r.StateSeries(), opts.Duration)
	return run
}

// activeEnergy integrates the supply meter over the windows the radio
// was awake — the paper's "Active Energy" row.
func activeEnergy(meter, states *trace.Series, dur units.Time) units.Energy {
	var total units.Energy
	for _, p := range meter.Points() {
		// Each meter sample reports mean power over the previous 200 ms
		// window; attribute it by the radio state at the window start.
		start := p.T - 200*units.Millisecond
		if start < 0 {
			start = 0
		}
		if radio.State(states.At(start)) != radio.Sleep {
			total += units.Power(p.V).Over(200 * units.Millisecond)
		}
	}
	return total
}

// Table1Cooperative regenerates Table 1 and Figures 13 and 14: the same
// pair of background pollers with and without netd's cooperative
// pooling.
func Table1Cooperative(opts Table1Options) Result {
	uncoop := runCoop(opts, false)
	coop := runCoop(opts, true)

	pct := func(worse, better units.Energy) float64 {
		if worse == 0 {
			return 0
		}
		return 100 * float64(worse-better) / float64(worse)
	}
	pctT := func(worse, better units.Time) float64 {
		if worse == 0 {
			return 0
		}
		return 100 * float64(worse-better) / float64(worse)
	}

	energySave := pct(uncoop.TotalEnergy, coop.TotalEnergy)
	activeTimeSave := pctT(uncoop.ActiveTime, coop.ActiveTime)
	activeEnergySave := pct(uncoop.ActiveEnergy, coop.ActiveEnergy)

	tbl := Table{
		Title:  "Table 1: cooperative resource sharing (paper: 1238→1083 J, 949→510 s, 1064→594 J)",
		Header: []string{"metric", "non-coop", "coop", "improv"},
		Rows: [][]string{
			{"Total Time", fmt.Sprintf("%.0fs", opts.Duration.Seconds()), fmt.Sprintf("%.0fs", opts.Duration.Seconds()), "N/A"},
			{"Total Energy", fmt.Sprintf("%.0fJ", uncoop.TotalEnergy.Joules()), fmt.Sprintf("%.0fJ", coop.TotalEnergy.Joules()), fmt.Sprintf("%.1f%%", energySave)},
			{"Active Time", fmt.Sprintf("%.0fs", uncoop.ActiveTime.Seconds()), fmt.Sprintf("%.0fs", coop.ActiveTime.Seconds()), fmt.Sprintf("%.1f%%", activeTimeSave)},
			{"Active Energy", fmt.Sprintf("%.0fJ", uncoop.ActiveEnergy.Joules()), fmt.Sprintf("%.0fJ", coop.ActiveEnergy.Joules()), fmt.Sprintf("%.1f%%", activeEnergySave)},
			{"Radio Activations", fmt.Sprintf("%d", uncoop.Activations), fmt.Sprintf("%d", coop.Activations), ""},
			{"Polls (rss+mail)", fmt.Sprintf("%d", uncoop.RSSPolls+uncoop.MailPolls), fmt.Sprintf("%d", coop.RSSPolls+coop.MailPolls), ""},
		},
	}

	uncoop.Meter.Rename("fig13a-uncooperative-power")
	coop.Meter.Rename("fig13b-cooperative-power")
	coop.PoolTrace.Rename("fig14-netd-pool")

	res := Result{
		ID:    "table1",
		Title: "Cooperative network stack vs energy-unrestricted baseline (1201 s, 60 s polls)",
		Headline: fmt.Sprintf("coop saves %.1f%% total energy, %.1f%% active time, %.1f%% active energy",
			energySave, activeTimeSave, activeEnergySave),
		Tables: []Table{tbl},
		Series: []*trace.Series{uncoop.Meter, coop.Meter, coop.PoolTrace},
	}

	poolPeak := units.Energy(coop.PoolTrace.Max())
	poolFloorOK := fig14FloorHolds(coop.PoolTrace)

	res.Checks = append(res.Checks,
		check("total energy saving ≈12.5%", "12.5%",
			energySave >= 6 && energySave <= 20, "%.1f%%", energySave),
		check("active time saving ≈46.3%", "46.3%",
			activeTimeSave >= 30 && activeTimeSave <= 60, "%.1f%%", activeTimeSave),
		check("active energy saving ≈44.2%", "44.2%",
			activeEnergySave >= 28 && activeEnergySave <= 60, "%.1f%%", activeEnergySave),
		check("equal work: both conditions complete ≈the same polls", "same budget, same work",
			within64(int64(coop.RSSPolls+coop.MailPolls), int64(uncoop.RSSPolls+uncoop.MailPolls), 25),
			"coop %d vs uncoop %d", coop.RSSPolls+coop.MailPolls, uncoop.RSSPolls+uncoop.MailPolls),
		check("coop merges activations (≈1/min)", "radio on at most every 60 s",
			coop.Activations < uncoop.Activations && coop.Activations >= 15 && coop.Activations <= 22,
			"%d coop vs %d uncoop", coop.Activations, uncoop.Activations),
		check("fig14: pool peaks at ≈125% of 9.5 J", "≈11.9 J",
			poolPeak >= units.Joules(11) && poolPeak <= units.Joules(13),
			"%.1f J", poolPeak.Joules()),
		check("fig14: pool never empties once cycling", "retains ≈25% margin",
			poolFloorOK, "floor holds=%v", poolFloorOK),
	)
	return res
}

// fig14FloorHolds checks the pool stays above zero after its first
// threshold crossing.
func fig14FloorHolds(pool *trace.Series) bool {
	crossed := false
	for _, p := range pool.Points() {
		if units.Energy(p.V) > units.Joules(11) {
			crossed = true
		}
		if crossed && p.V <= 0 {
			return false
		}
	}
	return crossed
}

// within64 reports |a−b| ≤ pct% of b.
func within64(a, b, pct int64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if b == 0 {
		return a == 0
	}
	return diff*100 <= b*pct
}
