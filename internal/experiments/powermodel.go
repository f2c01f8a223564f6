package experiments

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/label"
	"repro/internal/units"
)

// PowerModel regenerates the §4.2 characterization prose as a table:
// the Dream's draw in each device state, measured end-to-end through
// the simulated bench supply (idle 699 mW, backlight +555 mW, CPU spin
// +137 mW, memory-bound +13 %). It validates that the kernel's billing
// paths compose to exactly the published constants — the premise every
// other experiment builds on. reference measures on the reference
// configuration (kernel.Config.Reference), for the engine-equivalence
// tests.
func PowerModel(reference bool) Result {
	res := Result{
		ID:    "powermodel",
		Title: "Device power states (§4.2 characterization)",
	}

	measure := func(configure func(k *kernel.Kernel)) units.Power {
		k := kernel.New(kernel.Config{Seed: 51, DecayHalfLife: -1, Reference: reference})
		configure(k)
		meter := k.NewMeter("supply")
		start := k.Consumed()
		startT := k.Now()
		k.Run(10 * units.Second)
		_ = meter
		return (k.Consumed() - start).DividedBy(k.Now() - startT)
	}

	idle := measure(func(k *kernel.Kernel) {})
	backlight := measure(func(k *kernel.Kernel) { k.SetBacklight(true) })
	spin := measure(func(k *kernel.Kernel) {
		res := k.CreateReserve(k.Root, "spin", label.Public())
		if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), res, units.Kilojoule); err != nil {
			panic(err)
		}
		k.Spawn(k.Root, "spin", label.Priv{}, nil, res)
	})
	worst := kernel.New(kernel.Config{Seed: 51}).Profile.WorstCaseCPU()

	mw := func(p units.Power) string { return fmt.Sprintf("%.0f", p.Milliwatts()) }
	res.Tables = append(res.Tables, Table{
		Title:  "Measured draw by state (mW), 10 s per state through the supply meter",
		Header: []string{"state", "paper", "measured"},
		Rows: [][]string{
			{"idle", "699", mw(idle)},
			{"idle + backlight", "699+555=1254", mw(backlight)},
			{"idle + CPU spin", "699+137=836", mw(spin)},
			{"worst-case CPU (modelled, +13% memory-bound)", "155", mw(worst)},
		},
	})
	res.Headline = fmt.Sprintf("idle %s, +backlight %s, +CPU %s mW — billing paths compose to the published constants",
		mw(idle), mw(backlight), mw(spin))

	within := func(got units.Power, wantMw int64) bool {
		want := units.Power(wantMw) * units.Milliwatt
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff*100 <= want // 1 % tolerance
	}
	res.Checks = append(res.Checks,
		check("idle draw 699 mW", "699 mW", within(idle, 699), "%s mW", mw(idle)),
		check("backlight adds 555 mW", "1254 mW total", within(backlight, 1254), "%s mW", mw(backlight)),
		check("CPU spin adds 137 mW", "836 mW total", within(spin, 836), "%s mW", mw(spin)),
		check("worst-case CPU model = 137 × 1.13", "≈155 mW",
			worst == units.Milliwatts(137)+units.Milliwatts(137)*13/100, "%s mW", mw(worst)),
	)
	return res
}
