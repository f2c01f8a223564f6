package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/units"
)

// GraphGallery constructs the paper's design figures that are wiring
// diagrams rather than measurements — Fig. 1 (battery→tap→browser),
// Fig. 6a/6b (browser/plugin subdivision with and without reclamation),
// and Fig. 7 (task-manager foreground/background) — and verifies their
// structural properties. reference builds every kernel on the reference
// configuration (kernel.Config.Reference), for the engine-equivalence
// tests.
func GraphGallery(reference bool) Result {
	res := Result{
		ID:    "gallery",
		Title: "Resource consumption graph wiring (Figures 1, 6a, 6b, 7)",
	}
	var rows [][]string
	pass := true
	note := func(fig, claim string, ok bool, detail string) {
		rows = append(rows, []string{fig, claim, fmt.Sprintf("%v", ok), detail})
		if !ok {
			pass = false
		}
	}

	// Fig. 1: 15 kJ battery feeding a browser reserve via a 750 mW tap
	// lasts at least 5 hours (15000 J / 0.750 W ≈ 5.6 h).
	{
		k := kernel.New(kernel.Config{Seed: 31, DecayHalfLife: -1, Reference: reference})
		res1, tap, err := k.Wrap(k.Root, "browser", k.KernelPriv(), k.Battery(),
			units.Milliwatts(750), labelPublic())
		if err != nil {
			panic(err)
		}
		_ = res1
		lifetime := float64(k.Profile.BatteryCapacity) / float64(units.Energy(tap.Rate())) // seconds
		note("fig1", "750 mW tap on 15 kJ battery ⇒ ≥5 h lifetime",
			lifetime >= 5*3600, fmt.Sprintf("%.1f h", lifetime/3600))
	}

	// Fig. 6a: plugin limited to 10% of the browser's power.
	{
		k := kernel.New(kernel.Config{Seed: 32, DecayHalfLife: -1, Reference: reference})
		b, err := apps.NewBrowser(k, k.Root, k.KernelPriv(), k.Battery(), apps.BrowserConfig{
			Rate:       units.Milliwatts(690),
			PluginRate: units.Milliwatts(69),
		})
		if err != nil {
			panic(err)
		}
		note("fig6a", "plugin tap = 10% of browser tap",
			b.Plugin.Tap.Rate()*10 == b.Tap.Rate(),
			fmt.Sprintf("%v vs %v", b.Plugin.Tap.Rate(), b.Tap.Rate()))
	}

	// Fig. 6b: with reclamation, an idle plugin reserve converges to
	// rate/frac (70 mW / 0.1×/s = 700 mJ) and the browser's to 7000 mJ.
	{
		k := kernel.New(kernel.Config{Seed: 33, DecayHalfLife: -1, Reference: reference})
		b, err := apps.NewBrowser(k, k.Root, k.KernelPriv(), k.Battery(), apps.BrowserConfig{
			Rate:       units.Milliwatts(700),
			PluginRate: units.Milliwatts(70),
			Reclaim:    true,
		})
		if err != nil {
			panic(err)
		}
		b.Thread.Exit()
		b.Plugin.Thread.Exit()
		k.Run(3 * units.Minute)
		plvl, _ := b.Plugin.Reserve.Level(labelPublicPriv())
		blvl, _ := b.Reserve.Level(labelPublicPriv())
		pOK := plvl > 600*units.Millijoule && plvl < 800*units.Millijoule
		bOK := blvl > units.Joules(5.5) && blvl < units.Joules(8)
		note("fig6b", "plugin reserve ⇒ ≈700 mJ (10 s of 70 mW)", pOK, plvl.String())
		note("fig6b", "browser reserve ⇒ ≈7000 mJ", bOK, blvl.String())
	}

	// Fig. 7: foreground taps modifiable only by the task manager.
	{
		k := kernel.New(kernel.Config{Seed: 34, DecayHalfLife: -1, Reference: reference})
		tm, err := apps.NewTaskManager(k, k.Root, k.KernelPriv(), k.Battery(), apps.TaskManagerConfig{
			ForegroundRate: units.Milliwatts(137),
			BackgroundRate: units.Milliwatts(14),
		})
		if err != nil {
			panic(err)
		}
		rssApp, err := tm.Manage("RSS", units.Milliwatts(7))
		if err != nil {
			panic(err)
		}
		if err := tm.SetForeground("RSS"); err != nil {
			panic(err)
		}
		k.Run(units.Second)
		appCantRaise := rssApp.Tap.SetRate(labelPublicPriv(), units.Watt) != nil
		note("fig7", "only the task manager can modify an app's taps",
			appCantRaise, "app SetRate rejected")
		note("fig7", "foreground app's taps sum to fg+bg rates",
			rssApp.Tap.Rate() == units.Milliwatts(7),
			fmt.Sprintf("bg %v", rssApp.Tap.Rate()))
	}

	res.Tables = append(res.Tables, Table{
		Title:  "Structural checks",
		Header: []string{"figure", "claim", "ok", "detail"},
		Rows:   rows,
	})
	res.Headline = fmt.Sprintf("%d structural checks, pass=%v", len(rows), pass)
	res.Checks = append(res.Checks, Check{
		Name: "all wiring diagrams hold", Paper: "Figures 1/6a/6b/7",
		Measured: fmt.Sprintf("%d checks", len(rows)), Pass: pass,
	})
	return res
}
