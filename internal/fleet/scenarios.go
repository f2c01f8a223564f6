package fleet

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/label"
	"repro/internal/snap"
	"repro/internal/units"
)

func publicLabel() label.Label { return label.Public() }

// The §6.4 cooperative-poller workload, shared by PollerScenario and
// the Pollers phase: the paper's pair of periodic network applications
// (an RSS feed and a pop3 mail checker), each funded with "enough
// energy to activate the radio every two minutes", exchanging a small
// request for a payload that varies per poll.
const (
	pollerCount         = 2
	pollerInterval      = 60 * units.Second
	pollerRate          = 79 * units.Milliwatt
	pollerReqBytes      = 300
	pollerRespBytes     = 12 << 10
	pollerRespJitterPct = 20
)

// PollerScenario reproduces the §6.4 cooperative-poller workload at
// fleet scale: each device runs the paper's pair of periodic network
// applications against the cooperative netd, polling every 60 s, with
// per-device phase and payload jitter drawn from the device's
// construction stream so no two phones poll in lockstep.
type PollerScenario struct{}

// Name implements Scenario.
func (PollerScenario) Name() string { return "poller" }

// Build implements Scenario.
func (PollerScenario) Build(d *Device) error {
	pollers := make([]*apps.Poller, pollerCount)
	for i := range pollers {
		phase := units.Time(d.Rand.Intn(int64(pollerInterval)))
		p, err := apps.NewPoller(d.Kernel, d.Kernel.Root, fmt.Sprintf("poller-%d", i),
			d.Kernel.KernelPriv(), d.Kernel.Battery(), apps.PollerConfig{
				Interval:      pollerInterval,
				Phase:         phase,
				Rate:          pollerRate,
				ReqBytes:      pollerReqBytes,
				RespBytes:     pollerRespBytes,
				RespJitterPct: pollerRespJitterPct,
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

// spinnerRate funds the spinner: 68.5 mW, half the Dream CPU.
const spinnerRate = 68500 * units.Microwatt

// SpinnerScenario runs one energy-wrapped CPU hog per device (the Fig. 9
// spinner), funded at spinnerRate from the battery — a busy-CPU
// contrast to IdleScenario for utilization sweeps.
type SpinnerScenario struct{}

// Name implements Scenario.
func (SpinnerScenario) Name() string { return "spinner" }

// Build implements Scenario.
func (SpinnerScenario) Build(d *Device) error {
	_, err := apps.NewSpinner(d.Kernel, d.Kernel.Root, "hog",
		d.Kernel.KernelPriv(), d.Kernel.Battery(), spinnerRate, publicLabel())
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
