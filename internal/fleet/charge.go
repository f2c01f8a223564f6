package fleet

import (
	"repro/internal/power"
	"repro/internal/sim"
)

// Charge plugs a wall supply into the device for the window — the first
// workload that *credits* the battery instead of draining it. Scenario
// days composed with Charge phases model full recharge cycles: the
// depletion horizon, the watch horizon and closed-form settlement all
// have to stay exact while the battery level is non-monotone, which is
// precisely what the kernel's BatteryCharger was built to guarantee
// (see internal/kernel/charger.go).
//
// The first Charge phase installed on a device attaches the charger;
// later phases reuse it. Charge windows on one
// device must not overlap — Plug while plugged is a no-op, so an
// overlapped window's unplug would cut the earlier window short.
type Charge struct {
	// Supply is the wall adapter (default power.ACCharger, the Dream's
	// stock 1 A brick).
	Supply power.Charger
}

// Name implements Workload.
func (Charge) Name() string { return "charge" }

// Install implements Workload.
func (c Charge) Install(d *Device, w Window) error {
	if w.Duration <= 0 {
		return nil
	}
	supply := c.Supply
	if supply.Rate <= 0 {
		supply = power.ACCharger()
	}
	k := d.Kernel
	if k.Charger() == nil {
		k.AttachCharger()
	}
	ch := k.Charger()
	k.Eng.At(w.Start, func(*sim.Engine) { ch.Plug(supply) })
	k.Eng.At(w.End(), func(*sim.Engine) { ch.Unplug() })
	return nil
}
