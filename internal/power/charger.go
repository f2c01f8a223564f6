package power

import (
	"repro/internal/units"
)

// Charger models a wall or USB power source the way the Profile models
// drains: a constant-rate state measured offline. The paper's
// experiments run on battery (discharge-only), but its lifetime-scale
// argument — reserves governing a device across days — only closes once
// the battery level is non-monotone, so the month-in-the-life scenarios
// plug the device in overnight.
//
// The rate is the power delivered *into the battery*, i.e. already net
// of charge-circuit losses; the device's own draw continues to come out
// of the battery through the existing tap/baseline paths, so a plugged
// device charges at (Rate − draw) and the level trajectory stays exact
// integer arithmetic on both sides.
type Charger struct {
	// Rate is the sustained charge power delivered into the battery.
	Rate units.Power
}

// ACCharger returns the HTC Dream's stock 1 A @ 5 V wall adapter (5 W
// nominal), derated to 4 W delivered — the overnight fast-charge case.
// At 4 W a depleted 15 kJ Dream battery refills in just over an hour.
func ACCharger() Charger {
	return Charger{Rate: units.Watts(4)}
}

// LaptopCharger returns a 65 W laptop supply derated to 55 W delivered,
// matching the T60p profile's 200 kJ battery (≈1 h to full).
func LaptopCharger() Charger {
	return Charger{Rate: units.Watts(55)}
}
