package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/currentcy"
	"repro/internal/kernel"
	"repro/internal/netd"
	"repro/internal/radio"
	"repro/internal/units"
)

// BaselineComparison quantifies the paper's §2.3 claims against the
// ECOSystem/currentcy baseline (internal/currentcy):
//
//  1. subdivision — a browser that must share one flat container with
//     its plugin is starved under currentcy but protected by a Cinder
//     tap;
//  2. delegation — two background pollers that can each afford a radio
//     activation only every two minutes achieve twice the service rate
//     under Cinder's pooling, while currentcy tasks cannot combine at
//     all.
//
// reference builds both Cinder kernels on the reference configuration
// (kernel.Config.Reference), for the engine-equivalence tests.
func BaselineComparison(reference bool) Result {
	res := Result{
		ID:    "baseline",
		Title: "Cinder vs ECOSystem currentcy (the §2.3 comparison)",
	}

	// --- Scenario 1: subdivision (browser vs greedy plugin), 30 s. ---
	// Currentcy: one flat task at 690 mW; the plugin burns everything.
	cs := currentcy.New(units.Milliwatts(690), units.Second)
	task := cs.AddTask("browser+plugin", 1, units.Kilojoule)
	var curBrowserOK, curBrowserTries int
	for epoch := 0; epoch < 30; epoch++ {
		cs.Allocate()
		for task.CanSpend(10 * units.Millijoule) {
			if task.Spend(10*units.Millijoule) != nil {
				break
			}
		}
		curBrowserTries++
		if task.Spend(50*units.Millijoule) == nil {
			curBrowserOK++
		}
	}

	// Cinder: same budget, plugin behind a 70 mW tap. The plugin
	// spinner burns flat out; the browser's 620 mW residual keeps it
	// fully responsive.
	k := kernel.New(kernel.Config{Seed: 41, DecayHalfLife: -1, Reference: reference})
	b, err := apps.NewBrowser(k, k.Root, k.KernelPriv(), k.Battery(), apps.BrowserConfig{
		Rate:       units.Milliwatts(690),
		PluginRate: units.Milliwatts(70),
	})
	if err != nil {
		panic(err)
	}
	k.Run(30 * units.Second)
	var cinBrowserOK, cinBrowserTries int
	for i := 0; i < 30; i++ {
		cinBrowserTries++
		if b.Reserve.CanConsume(b.Priv(), 50*units.Millijoule) {
			if b.Reserve.Consume(b.Priv(), 50*units.Millijoule) == nil {
				cinBrowserOK++
			}
		}
	}

	// --- Scenario 2: delegation (pooled radio activations), 20 min. ---
	// Currentcy: two tasks, 79 mW each, no transfer primitive.
	cs2 := currentcy.New(units.Milliwatts(158), units.Second)
	activation := units.Joules(9.5)
	mail := cs2.AddTask("mail", 1, activation*125/100)
	rss := cs2.AddTask("rss", 1, activation*125/100)
	curActivations := 0
	for epoch := 0; epoch < 20*60; epoch++ {
		cs2.Allocate()
		for _, task := range []*currentcy.Task{mail, rss} {
			if task.CanSpend(activation) && task.Spend(activation) == nil {
				curActivations++
			}
		}
	}

	// Cinder: the same 79 mW apiece through netd's pool.
	k2 := kernel.New(kernel.Config{Seed: 42, DecayHalfLife: -1, Reference: reference})
	r2 := radio.New(k2.Eng, k2.Graph, k2.Root, k2.KernelPriv(), radio.Config{Profile: k2.Profile})
	k2.AddDevice(r2)
	if _, err := netd.New(k2, r2, netd.Config{Cooperative: true}); err != nil {
		panic(err)
	}
	for _, phase := range []units.Time{units.Second, 16 * units.Second} {
		if _, err := apps.NewPoller(k2, k2.Root, "p", k2.KernelPriv(), k2.Battery(), apps.PollerConfig{
			Interval: 60 * units.Second, Phase: phase,
			Rate: units.Milliwatts(79), ReqBytes: 300, RespBytes: 12 << 10,
		}); err != nil {
			panic(err)
		}
	}
	k2.Run(20 * units.Minute)
	cinActivations := int(r2.Stats().Activations)
	// Service quality is the §6.4 metric: a currentcy activation serves
	// only the task that saved for it, while every pooled activation
	// serves both waiting apps — "increasing the frequency of mail and
	// news checks by a factor of two, using the same energy budget".
	curServicesPerApp := curActivations / 2 // each app pays for its own
	cinServicesPerApp := cinActivations     // both ride every power-up

	res.Tables = append(res.Tables, Table{
		Title:  "Structural capability comparison (same budgets)",
		Header: []string{"scenario", "currentcy (flat tasks)", "cinder (reserves+taps)"},
		Rows: [][]string{
			{"browser work admitted next to greedy plugin",
				fmt.Sprintf("%d/%d epochs", curBrowserOK, curBrowserTries),
				fmt.Sprintf("%d/%d requests", cinBrowserOK, cinBrowserTries)},
			{"radio activations in 20 min @79 mW×2",
				fmt.Sprintf("%d (one app each)", curActivations),
				fmt.Sprintf("%d (both apps every time)", cinActivations)},
			{"network checks per app in 20 min",
				fmt.Sprintf("%d (every ≈2 min)", curServicesPerApp),
				fmt.Sprintf("%d (every ≈1 min)", cinServicesPerApp)},
		},
	})
	res.Headline = fmt.Sprintf(
		"subdivision: browser survives %d/%d vs %d/%d; delegation: %d vs %d checks per app",
		cinBrowserOK, cinBrowserTries, curBrowserOK, curBrowserTries,
		cinServicesPerApp, curServicesPerApp)

	res.Checks = append(res.Checks,
		check("currentcy cannot protect the browser from its plugin",
			"§2.3: 'no way to prevent its plugins from consuming its own resources'",
			curBrowserOK <= curBrowserTries/4,
			"%d/%d browser epochs admitted", curBrowserOK, curBrowserTries),
		check("cinder subdivision keeps the browser responsive",
			"plugin capped at its tap", cinBrowserOK == cinBrowserTries,
			"%d/%d", cinBrowserOK, cinBrowserTries),
		check("cinder pooling roughly doubles each app's check frequency",
			"§6.4: 'increasing the frequency of mail and news checks by a factor of two'",
			cinServicesPerApp >= curServicesPerApp*17/10,
			"%d vs %d checks per app", cinServicesPerApp, curServicesPerApp),
	)
	return res
}
