package fleet

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/netd"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/units"
)

// rig is one worker's recyclable device machinery: the kernel (engine,
// object table, graph, scheduler), radio and netd are Reset in place
// for each device instead of constructed fresh, so a million-device run
// builds only O(workers) object graphs. The per-device Smdd is not
// recycled — it exists only on devices whose scenario asks for it.
type rig struct {
	k   *kernel.Kernel
	r   *radio.Radio
	n   *netd.Netd
	dev *Device
}

// buildDevice assembles one fleet member — recycled rig machinery, the
// scenario's workloads, and the battery watch — leaving it ready to
// run (or to overlay a checkpoint snapshot). The returned DeviceResult
// is wired into the battery watch; extractResult completes it after
// the simulation.
//
// The recycled construction sequence is identical to the fresh one —
// kernel, then radio (and its funding reserve), then netd — so object
// IDs, seeds and every downstream result are byte-identical; the
// equivalence tests assert it. The reference configuration builds every
// device on a fresh rig.
func buildDevice(cfg Config, idx int, rg *rig) (*Device, *DeviceResult, error) {
	seed := DeriveSeed(cfg.Seed, idx)
	kcfg := kernel.Config{
		Seed:            seed,
		BatteryCapacity: cfg.BatteryCapacity,
		Reference:       cfg.Reference,
	}
	if p, ok := cfg.Scenario.(Provisioner); ok {
		prov := p.Provision(idx, seed)
		if prov.BatteryCapacity != 0 {
			if cfg.BatteryCapacity != 0 {
				return nil, nil, fmt.Errorf("fleet: scenario %q provisions per-device batteries; "+
					"the fleet-level battery override (-battery-j) contradicts it — drop one",
					cfg.Scenario.Name())
			}
			kcfg.BatteryCapacity = prov.BatteryCapacity
		}
		if prov.Profile.Name != "" {
			kcfg.Profile = prov.Profile
		}
		kcfg.StrictHoarding = prov.StrictHoarding
	}
	ncfg := netd.Config{Cooperative: true}
	if cfg.Reference {
		*rg = rig{}
	}
	if rg.k == nil {
		rg.k = kernel.New(kcfg)
		rg.r = radio.New(rg.k.Eng, rg.k.Graph, rg.k.Root, rg.k.KernelPriv(), radio.Config{Profile: rg.k.Profile})
		rg.k.AddDevice(rg.r)
		var err error
		rg.n, err = netd.New(rg.k, rg.r, ncfg)
		if err != nil {
			*rg = rig{} // never leave a half-built rig for the next device
			return nil, nil, err
		}
		rg.dev = &Device{}
	} else {
		rg.k.Reset(kcfg)
		rg.r.Reset(rg.k.Eng, rg.k.Graph, rg.k.Root, rg.k.KernelPriv(), radio.Config{Profile: rg.k.Profile})
		rg.k.AddDevice(rg.r)
		if err := rg.n.Reset(rg.k, rg.r, ncfg); err != nil {
			*rg = rig{}
			return nil, nil, err
		}
	}
	k := rg.k

	d := rg.dev
	clear(d.Probes)
	probes := d.Probes[:0]
	clear(d.Hooks)
	hooks := d.Hooks[:0]
	rand := d.Rand
	if rand == nil {
		rand = newSplitmix(seed)
	} else {
		rand.state = uint64(seed)
	}
	*d = Device{
		Index:    idx,
		Seed:     seed,
		Rand:     rand,
		Kernel:   k,
		Radio:    rg.r,
		Netd:     rg.n,
		Scenario: cfg.Scenario.Name(),
		Probes:   probes,
		Hooks:    hooks,
	}
	if err := cfg.Scenario.Build(d); err != nil {
		return nil, nil, err
	}

	res := &DeviceResult{Index: idx, Seed: seed}
	lifeRes := cfg.LifeResolution
	if lifeRes == 0 {
		lifeRes = DefaultLifeResolution
	}
	var watch *sim.Task
	watch = k.Eng.Every("fleet:battery-watch", lifeRes, func(e *sim.Engine) {
		if !res.Died && k.BatteryExhaustedFor(watchSustain(lifeRes)) {
			res.Died = true
			res.DiedAt = e.Now()
			e.Stop() // dead device: nothing left to measure
			return
		}
		// While no thread runs and every peripheral is quiescent, skip
		// ahead: the kernel bounds how far the baseline and the active
		// taps could drain the battery, and the deferral lands the next
		// check at the exact grid instant dense polling would first have
		// detected anything. (The reference kernel's horizon is always
		// 0: its watch polls densely.)
		if h := k.WatchHorizon(watch); h > e.Now() {
			watch.DeferUntil(h)
		}
	})
	// What exists now is what a restore rebuilds: the device saves and
	// loads only while its census and pending events are the build's.
	k.Table.MarkBuilt()
	k.Eng.MarkBuilt()
	return d, res, nil
}

// extractResult reads the simulated device back into its result.
func extractResult(d *Device, res *DeviceResult) {
	k := d.Kernel
	res.Scenario = d.Scenario
	res.Consumed = k.Consumed()
	if lvl, err := k.Battery().Level(k.KernelPriv()); err == nil {
		res.BatteryLeft = lvl
	}
	res.Utilization = k.Sched.Utilization()
	res.BusyTicks = k.Sched.BusyTicks()
	res.IdleTicks = k.Sched.IdleTicks()
	res.RadioActivations = d.Radio.Stats().Activations
	res.PowerUps = d.Netd.Stats().PowerUps
	res.EngineSteps = k.Eng.Steps()
	res.FlowWalks = k.Graph.FlowWalks()
	res.SettledBatches = k.Graph.SettledBatches()
	res.SettledSweeps = d.Netd.Stats().SettledSweeps
	if c := k.Charger(); c != nil {
		cs := c.Stats()
		res.Recharged = cs.Recharged
		res.SettledCharges = cs.SettledCharges
	}
	if d.Smdd != nil {
		s := d.Smdd.Stats()
		res.SMSSent = s.SMSSent
		res.CallsPlaced = s.CallsPlaced
	}
	for _, p := range d.Probes {
		p(res)
	}
}

// watchSustain is the horizon the battery watch requires the battery to
// sustain at baseline draw before declaring the device alive: the watch
// resolution, capped at one second so coarse life resolutions do not
// shave measurable life off the end. A drained device whose clamped
// taps and decay refunds keep the level floating a batch or two above
// the billing quantum would otherwise zombie along — executing its full
// per-instant load, consuming nothing, measuring nothing — until some
// teardown returns enough energy to finish dying.
func watchSustain(lifeRes units.Time) units.Time {
	if lifeRes > units.Second {
		return units.Second
	}
	return lifeRes
}
