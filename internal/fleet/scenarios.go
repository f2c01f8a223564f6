package fleet

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/label"
	"repro/internal/snap"
	"repro/internal/units"
)

func publicLabel() label.Label { return label.Public() }

// PollerScenario reproduces the §6.4 cooperative-poller workload at
// fleet scale: each device runs Pollers pairs of periodic network
// applications (the paper's RSS feed and pop3 mail checker) against the
// cooperative netd, with per-device phase and payload jitter drawn from
// the device's construction stream so no two phones poll in lockstep.
type PollerScenario struct {
	// Pollers is the number of polling applications per device
	// (default 2, the paper's pair).
	Pollers int
	// Interval is the poll period (default 60 s).
	Interval units.Time
	// Rate funds each poller's reserve (default 79 mW, §6.4's "enough
	// energy to activate the radio every two minutes").
	Rate units.Power
	// ReqBytes/RespBytes size each poll (defaults 300 B / 12 KiB).
	ReqBytes  int
	RespBytes int
	// RespJitterPct varies payloads per poll (default 20%).
	RespJitterPct int
}

// Name implements Scenario.
func (s PollerScenario) Name() string { return "poller" }

// Build implements Scenario.
func (s PollerScenario) Build(d *Device) error {
	n := s.Pollers
	if n <= 0 {
		n = 2
	}
	interval := s.Interval
	if interval == 0 {
		interval = 60 * units.Second
	}
	rate := s.Rate
	if rate == 0 {
		rate = units.Milliwatts(79)
	}
	req, resp := s.ReqBytes, s.RespBytes
	if req == 0 {
		req = 300
	}
	if resp == 0 {
		resp = 12 << 10
	}
	jitter := s.RespJitterPct
	if jitter == 0 {
		jitter = 20
	}
	pollers := make([]*apps.Poller, n)
	for i := range pollers {
		phase := units.Time(d.Rand.Intn(int64(interval)))
		p, err := apps.NewPoller(d.Kernel, d.Kernel.Root, fmt.Sprintf("poller-%d", i),
			d.Kernel.KernelPriv(), d.Kernel.Battery(), apps.PollerConfig{
				Interval:      interval,
				Phase:         phase,
				Rate:          rate,
				ReqBytes:      req,
				RespBytes:     resp,
				RespJitterPct: jitter,
			})
		if err != nil {
			return err
		}
		pollers[i] = p
	}
	d.Probes = append(d.Probes, func(res *DeviceResult) {
		for _, p := range pollers {
			res.Polls += int64(p.Completed)
		}
	})
	// A resumed device rebuilds its pollers with no completed polls, so
	// the counts travel with the device's record. The next poll instant
	// needs no hook: it travels as the thread's wake time.
	d.Hooks = append(d.Hooks, func(c *snap.Codec) {
		c.Section("poller")
		for _, p := range pollers {
			snap.Int(c, &p.Completed)
		}
	})
	return nil
}

// IdleScenario is the degenerate workload: a powered-on phone doing
// nothing but baseline draw. It is the purest demonstration of the
// next-event engine — a device-day simulates in a handful of engine
// instants — and the control group for battery-life sweeps.
type IdleScenario struct{}

// Name implements Scenario.
func (IdleScenario) Name() string { return "idle" }

// Build implements Scenario.
func (IdleScenario) Build(*Device) error { return nil }

// SpinnerScenario runs one energy-wrapped CPU hog per device (the Fig. 9
// spinner), funded at Rate from the battery — a busy-CPU contrast to
// IdleScenario for utilization sweeps.
type SpinnerScenario struct {
	// Rate funds the spinner (default 68.5 mW, half the Dream CPU).
	Rate units.Power
}

// Name implements Scenario.
func (SpinnerScenario) Name() string { return "spinner" }

// Build implements Scenario.
func (s SpinnerScenario) Build(d *Device) error {
	rate := s.Rate
	if rate == 0 {
		rate = units.Microwatt * 68500
	}
	_, err := apps.NewSpinner(d.Kernel, d.Kernel.Root, "hog",
		d.Kernel.KernelPriv(), d.Kernel.Battery(), rate, publicLabel())
	return err
}

// Scenarios returns the built-in scenarios by name (the CLI's -scenario
// choices).
func Scenarios() map[string]Scenario {
	return map[string]Scenario{
		"poller":         PollerScenario{},
		"idle":           IdleScenario{},
		"spinner":        SpinnerScenario{},
		"dayinthelife":   DayInTheLife(),
		"weekinthelife":  WeekInTheLife(),
		"monthinthelife": MonthInTheLife(),
		"adversarial":    AdversarialCohorts(),
	}
}
