// Benchmarks: one per table and figure of the paper's evaluation, plus
// ablations for the design decisions DESIGN.md calls out. Figure
// benches run a scaled-down configuration of the same experiment code
// and report the headline quantity via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every artifact's key number
// alongside the runtime cost of simulating it.
package cinder

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/netd"
	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/units"
)

// --- Figure/table benches -------------------------------------------------

// BenchmarkFig3RadioFlowEnergy regenerates Fig. 3's extreme cell: a 10 s
// 1500 B × 40 pps echo flow. Reports joules per flow.
func BenchmarkFig3RadioFlowEnergy(b *testing.B) {
	opts := experiments.Fig3Options{
		Sizes:        []int{1500},
		Rates:        []int{40},
		FlowDuration: 10 * units.Second,
	}
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig3RadioFlows(opts)
	}
	_ = last
	b.ReportMetric(extractJoules(last.Headline), "J/flow")
}

// BenchmarkFig4RadioActivation reports the mean activation overhead.
func BenchmarkFig4RadioActivation(b *testing.B) {
	opts := experiments.Fig4Options{SendInterval: 40 * units.Second, Activations: 3}
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig4RadioActivation(opts)
	}
	b.ReportMetric(extractJoules(r.Headline), "J/activation")
}

// BenchmarkFig9Isolation runs the isolation experiment at 20 s and
// reports A's post-fork power (must stay ≈68.5 mW).
func BenchmarkFig9Isolation(b *testing.B) {
	opts := experiments.DefaultFig9Options()
	opts.Duration = 20 * units.Second
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9Isolation(opts)
	}
	if !r.Passed() {
		b.Fatalf("fig9 checks failed:\n%s", r.Format(false))
	}
}

// BenchmarkFig10ViewerNoScaling runs a 3-batch non-adaptive viewer and
// reports simulated seconds to completion.
func BenchmarkFig10ViewerNoScaling(b *testing.B) {
	benchViewer(b, false)
}

// BenchmarkFig11ViewerScaling runs the adaptive viewer at the same
// scale.
func BenchmarkFig11ViewerScaling(b *testing.B) {
	benchViewer(b, true)
}

func benchViewer(b *testing.B, adaptive bool) {
	b.Helper()
	var finished units.Time
	for i := 0; i < b.N; i++ {
		k := kernel.New(kernel.Config{Seed: 5, Profile: power.LaptopT60p(), DecayHalfLife: -1})
		cfg := apps.DefaultViewerConfig(adaptive)
		cfg.Batches = 3
		v, err := apps.NewImageViewer(k, k.Root, k.KernelPriv(), k.Battery(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), v.Downloader, 200*units.Millijoule); err != nil {
			b.Fatal(err)
		}
		for v.FinishedAt == 0 && k.Now() < units.Hour {
			k.Run(10 * units.Second)
		}
		finished = v.FinishedAt
	}
	b.ReportMetric(finished.Seconds(), "sim-s/run")
}

// BenchmarkFig12aForeground runs the 137 mW foreground configuration.
func BenchmarkFig12aForeground(b *testing.B) {
	benchFig12(b, experiments.DefaultFig12aOptions())
}

// BenchmarkFig12bHoarding runs the 300 mW (hoarding) configuration.
func BenchmarkFig12bHoarding(b *testing.B) {
	benchFig12(b, experiments.DefaultFig12bOptions())
}

func benchFig12(b *testing.B, opts experiments.Fig12Options) {
	b.Helper()
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig12Foreground(opts)
	}
	if !r.Passed() {
		b.Fatalf("fig12 checks failed:\n%s", r.Format(false))
	}
}

// BenchmarkFig13Radio runs a 5-minute cooperative-vs-uncooperative pair
// and reports the active-time saving percentage (Fig. 13's visual
// claim).
func BenchmarkFig13Radio(b *testing.B) {
	opts := experiments.DefaultTable1Options()
	opts.Duration = 5 * units.Minute
	var saving float64
	for i := 0; i < b.N; i++ {
		r := experiments.Table1Cooperative(opts)
		saving = findPct(r, "active time")
	}
	b.ReportMetric(saving, "%active-time-saved")
}

// BenchmarkFig14NetdReserve reports the netd pool's sawtooth peak.
func BenchmarkFig14NetdReserve(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		k := kernel.New(kernel.Config{Seed: 14, DecayHalfLife: -1})
		r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{Profile: k.Profile, Trace: true})
		k.AddDevice(r)
		n, err := netd.New(k, r, netd.Config{Cooperative: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, spec := range []struct {
			name  string
			phase units.Time
		}{{"rss", units.Second}, {"mail", 16 * units.Second}} {
			if _, err := apps.NewPoller(k, k.Root, spec.name, k.KernelPriv(), k.Battery(), apps.PollerConfig{
				Interval: 60 * units.Second, Phase: spec.phase,
				Rate: units.Milliwatts(79), ReqBytes: 300, RespBytes: 12 << 10,
			}); err != nil {
				b.Fatal(err)
			}
		}
		k.Run(5 * units.Minute)
		peak = units.Energy(n.PoolTrace().Max()).Joules()
	}
	b.ReportMetric(peak, "J-pool-peak")
}

// BenchmarkTable1Cooperative runs the full comparison at 1/4 duration
// and reports the total-energy saving.
func BenchmarkTable1Cooperative(b *testing.B) {
	opts := experiments.DefaultTable1Options()
	opts.Duration = 5 * units.Minute
	var saving float64
	for i := 0; i < b.N; i++ {
		r := experiments.Table1Cooperative(opts)
		saving = findPct(r, "total energy")
	}
	b.ReportMetric(saving, "%energy-saved")
}

// --- Ablation benches -----------------------------------------------------

// BenchmarkAblationTapBatchingKernel measures the paper's chosen design:
// all taps flowed in one kernel batch per 10 ms (§3.3).
func BenchmarkAblationTapBatchingKernel(b *testing.B) {
	g, _, _ := tapFarm(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One simulated second of batched flows.
		for t := 0; t < 100; t++ {
			g.Flow(10 * units.Millisecond)
		}
	}
	b.ReportMetric(200, "taps")
}

// BenchmarkAblationTapBatchingThreads measures the rejected alternative:
// one transfer thread per tap, each scheduled and performing an explicit
// reserve-to-reserve transfer ("this fine-grained control would cause a
// proliferation of these special-purpose threads", §3.3).
func BenchmarkAblationTapBatchingThreads(b *testing.B) {
	g, tbl, reserves := tapFarm(0) // reserves only, no kernel taps
	root := tbl.root
	s := sched.New(tbl.table, units.Milliwatts(137))
	sysRes := g.NewReserve(root, "threadfuel", label.Public(), core.ReserveOpts{})
	if err := g.Transfer(label.Priv{}, g.Battery(), sysRes, units.Kilojoule); err != nil {
		b.Fatal(err)
	}
	for i, r := range reserves {
		r := r
		interval := 10 * units.Millisecond
		var next units.Time
		s.NewThread(root, "tap-thread", label.Public(), label.Priv{},
			sched.RunnerFunc(func(now units.Time, th *sched.Thread) {
				if now < next {
					th.Sleep(next)
					return
				}
				next = now + interval
				_, _ = g.TransferUpTo(label.Priv{}, g.Battery(), r, 10*units.Microjoule)
			}), sysRes)
		_ = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < 1000; t++ {
			s.Tick(units.Time(t), units.Millisecond)
		}
	}
	b.ReportMetric(float64(len(reserves)), "threads")
}

// BenchmarkAblationDecayOn measures the global half-life's per-second
// cost across 500 reserves.
func BenchmarkAblationDecayOn(b *testing.B) {
	benchDecay(b, core.DefaultHalfLife)
}

// BenchmarkAblationDecayOff is the baseline without decay.
func BenchmarkAblationDecayOff(b *testing.B) {
	benchDecay(b, -1)
}

func benchDecay(b *testing.B, half units.Time) {
	b.Helper()
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, label.Public())
	g := core.NewGraph(tbl, root, label.Public(), core.Config{DecayHalfLife: half})
	for i := 0; i < 500; i++ {
		r := g.NewReserve(root, "r", label.Public(), core.ReserveOpts{})
		if err := g.Transfer(label.Priv{}, g.Battery(), r, units.Joule); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Decay(units.Second)
	}
}

// BenchmarkAblationGateBillingCaller measures gate calls under Cinder-
// HiStar billing (caller pays).
func BenchmarkAblationGateBillingCaller(b *testing.B) {
	benchGate(b, kernel.BillCaller)
}

// BenchmarkAblationGateBillingDaemon measures the Cinder-Linux mode
// (daemon pays — §7.1's mis-attribution).
func BenchmarkAblationGateBillingDaemon(b *testing.B) {
	benchGate(b, kernel.BillDaemon)
}

func benchGate(b *testing.B, mode kernel.BillingMode) {
	b.Helper()
	k := kernel.New(kernel.Config{Seed: 1, DecayHalfLife: -1, Billing: mode})
	daemonRes := k.CreateReserve(k.Root, "daemon", label.Public())
	if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), daemonRes, units.Kilojoule); err != nil {
		b.Fatal(err)
	}
	if _, err := k.RegisterGate(k.Root, "svc", label.Public(), label.Priv{}, daemonRes,
		func(call *kernel.Call) (any, error) {
			return nil, call.BillTo().Consume(call.BillPriv(), units.Microjoule)
		}); err != nil {
		b.Fatal(err)
	}
	callerRes := k.CreateReserve(k.Root, "caller", label.Public())
	if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), callerRes, units.Kilojoule); err != nil {
		b.Fatal(err)
	}
	th := k.Sched.NewThread(k.Root, "client", label.Public(), label.Priv{}, nil, callerRes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.GateCall("svc", th, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNetdThreshold sweeps the pool threshold (100 %,
// 125 %, 150 % of the activation estimate) and reports activations per
// 5-minute run; 125 % is the paper's choice (Fig. 14).
func BenchmarkAblationNetdThreshold(b *testing.B) {
	for _, pct := range []int{100, 125, 150} {
		pct := pct
		b.Run(pctName(pct), func(b *testing.B) {
			var acts int64
			for i := 0; i < b.N; i++ {
				k := kernel.New(kernel.Config{Seed: 15, DecayHalfLife: -1})
				r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{Profile: k.Profile})
				k.AddDevice(r)
				if _, err := netd.New(k, r, netd.Config{Cooperative: true, ThresholdPct: pct}); err != nil {
					b.Fatal(err)
				}
				for _, phase := range []units.Time{units.Second, 16 * units.Second} {
					if _, err := apps.NewPoller(k, k.Root, "p", k.KernelPriv(), k.Battery(), apps.PollerConfig{
						Interval: 60 * units.Second, Phase: phase,
						Rate: units.Milliwatts(79), ReqBytes: 300, RespBytes: 12 << 10,
					}); err != nil {
						b.Fatal(err)
					}
				}
				k.Run(5 * units.Minute)
				acts = r.Stats().Activations
			}
			b.ReportMetric(float64(acts), "activations/5min")
		})
	}
}

// BenchmarkAblationEstimator compares netd's static 9.5 J activation
// constant against the §9 online estimator under activation-cost jitter,
// reporting power-ups per 10-minute run (both must keep the pooling
// cadence; the estimator additionally tracks the true mean).
func BenchmarkAblationEstimator(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		adaptive := adaptive
		name := "static"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			var fires int64
			for i := 0; i < b.N; i++ {
				k := kernel.New(kernel.Config{Seed: 16, DecayHalfLife: -1})
				r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{
					Profile: k.Profile, Jitter: true,
				})
				k.AddDevice(r)
				cfg := netd.Config{Cooperative: true}
				if adaptive {
					cfg.Estimator = estimator.NewActivationEstimator(r, 25)
				}
				n, err := netd.New(k, r, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, phase := range []units.Time{units.Second, 16 * units.Second} {
					if _, err := apps.NewPoller(k, k.Root, "p", k.KernelPriv(), k.Battery(), apps.PollerConfig{
						Interval: 60 * units.Second, Phase: phase,
						Rate: units.Milliwatts(79), ReqBytes: 300, RespBytes: 12 << 10,
					}); err != nil {
						b.Fatal(err)
					}
				}
				k.Run(10 * units.Minute)
				fires = n.Stats().PowerUps
			}
			b.ReportMetric(float64(fires), "powerups/10min")
		})
	}
}

// BenchmarkAblationProportionalTaps compares graphs of constant vs
// proportional taps (the Fig. 6b reclamation machinery's cost).
func BenchmarkAblationProportionalTaps(b *testing.B) {
	for _, kind := range []string{"const", "proportional"} {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			tbl := kobj.NewTable()
			root := kobj.NewContainer(tbl, nil, label.Public())
			g := core.NewGraph(tbl, root, label.Public(), core.Config{DecayHalfLife: -1})
			for i := 0; i < 200; i++ {
				r := g.NewReserve(root, "r", label.Public(), core.ReserveOpts{})
				tap, err := g.NewTap(root, "t", label.Priv{}, g.Battery(), r, label.Public())
				if err != nil {
					b.Fatal(err)
				}
				if kind == "const" {
					if err := tap.SetRate(label.Priv{}, units.Milliwatt); err != nil {
						b.Fatal(err)
					}
				} else {
					if err := tap.SetFrac(label.Priv{}, 100); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Flow(10 * units.Millisecond)
			}
		})
	}
}

// --- Engine benches --------------------------------------------------------

// BenchmarkEngineIdleDevice measures the next-event engine on the
// workload it was built for: a powered-on but idle phone (kernel, radio
// asleep, decay on, no runnable threads) simulated for 10 minutes. The
// quiescence machinery parks every per-tick task, so the engine executes
// a handful of instants instead of 600k.
func BenchmarkEngineIdleDevice(b *testing.B) {
	var consumed units.Energy
	for i := 0; i < b.N; i++ {
		k := kernel.New(kernel.Config{Seed: 42})
		r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{Profile: k.Profile})
		k.AddDevice(r)
		k.Run(10 * units.Minute)
		consumed = k.Consumed()
	}
	b.ReportMetric(consumed.Joules(), "J-consumed")
}

// BenchmarkBusyTapDevice measures the closed-form settlement fast path
// on the workload it was built for: a device with an always-active
// constant tap and periodic radio polls, simulated for 10 minutes.
func BenchmarkBusyTapDevice(b *testing.B) {
	var consumed units.Energy
	for i := 0; i < b.N; i++ {
		k := kernel.New(kernel.Config{Seed: 42})
		r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{Profile: k.Profile})
		k.AddDevice(r)
		app := k.CreateReserve(k.Root, "app", label.Public())
		tap, err := k.CreateTap(k.Root, "tap", k.KernelPriv(), k.Battery(), app, label.Public())
		if err != nil {
			b.Fatal(err)
		}
		if err := tap.SetRate(k.KernelPriv(), units.Milliwatts(79)); err != nil {
			b.Fatal(err)
		}
		for at := units.Time(1500); at < 10*units.Minute; at += 45 * units.Second {
			at := at
			k.Eng.At(at, func(e *sim.Engine) {
				r.Exchange(e.Now(), 300, 12<<10, app, k.KernelPriv(), nil)
			})
		}
		k.Run(10 * units.Minute)
		consumed = k.Consumed()
	}
	b.ReportMetric(consumed.Joules(), "J-consumed")
}

// BenchmarkFleetDayInTheLifeMix runs the scaled-down day-in-the-life mix
// (64 devices × 4 simulated hours).
func BenchmarkFleetDayInTheLifeMix(b *testing.B) {
	var rep fleet.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = fleet.Run(fleet.Config{
			Devices:  64,
			Seed:     1,
			Duration: 4 * units.Hour,
			Scenario: fleet.DayInTheLife(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.TotalEngineSteps)/float64(rep.Devices), "instants/device")
}

// BenchmarkFleet100Pollers runs a 100-device cooperative-poller fleet
// for 2 simulated minutes, the scaled-down version of the cinder-fleet
// CLI's default sweep.
func BenchmarkFleet100Pollers(b *testing.B) {
	var rep fleet.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = fleet.Run(fleet.Config{
			Devices:  100,
			Seed:     1,
			Duration: 2 * units.Minute,
			Scenario: fleet.PollerScenario{},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.TotalPolls), "polls")
}

// BenchmarkSchedulerTick measures the scheduler's per-quantum cost with
// 50 runnable threads.
func BenchmarkSchedulerTick(b *testing.B) {
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, label.Public())
	g := core.NewGraph(tbl, root, label.Public(), core.Config{
		DecayHalfLife: -1, BatteryCapacity: 1000 * units.Kilojoule,
	})
	s := sched.New(tbl, units.Milliwatts(137))
	for i := 0; i < 50; i++ {
		r := g.NewReserve(root, "r", label.Public(), core.ReserveOpts{})
		if err := g.Transfer(label.Priv{}, g.Battery(), r, 10*units.Kilojoule); err != nil {
			b.Fatal(err)
		}
		s.NewThread(root, "t", label.Public(), label.Priv{}, nil, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick(units.Time(i), units.Millisecond)
	}
}

// --- helpers ---------------------------------------------------------------

type tapFarmTable struct {
	table *kobj.Table
	root  *kobj.Container
}

// tapFarm builds a graph with nTaps constant taps (and as many
// reserves); with nTaps == 0 it builds 200 bare reserves for the
// thread-per-tap variant.
func tapFarm(nTaps int) (*core.Graph, tapFarmTable, []*core.Reserve) {
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, label.Public())
	g := core.NewGraph(tbl, root, label.Public(), core.Config{
		DecayHalfLife: -1, BatteryCapacity: 1000 * units.Kilojoule,
	})
	n := nTaps
	if n == 0 {
		n = 200
	}
	reserves := make([]*core.Reserve, 0, n)
	for i := 0; i < n; i++ {
		r := g.NewReserve(root, "r", label.Public(), core.ReserveOpts{})
		reserves = append(reserves, r)
		if nTaps > 0 {
			tap, err := g.NewTap(root, "t", label.Priv{}, g.Battery(), r, label.Public())
			if err != nil {
				panic(err)
			}
			if err := tap.SetRate(label.Priv{}, units.Milliwatt); err != nil {
				panic(err)
			}
		}
	}
	return g, tapFarmTable{table: tbl, root: root}, reserves
}

var firstNumber = regexp.MustCompile(`\d+(\.\d+)?`)

// extractJoules pulls the first number out of a headline; crude but
// adequate for metric reporting.
func extractJoules(headline string) float64 {
	m := firstNumber.FindString(headline)
	if m == "" {
		return 0
	}
	v, err := strconv.ParseFloat(m, 64)
	if err != nil {
		return 0
	}
	return v
}

// findPct extracts the improvement percentage for the named Table 1 row.
func findPct(r experiments.Result, rowPrefix string) float64 {
	for _, t := range r.Tables {
		for _, row := range t.Rows {
			if len(row) >= 4 && strings.Contains(strings.ToLower(row[0]), strings.ToLower(rowPrefix)) {
				return extractJoules(row[3])
			}
		}
	}
	return 0
}

func pctName(pct int) string { return fmt.Sprintf("threshold%d", pct) }
