// Package cinder is the public API of this reproduction of "Energy
// Management in Mobile Devices with the Cinder Operating System"
// (Roy, Rumble, Stutsman, Levis, Mazières, Zeldovich; EuroSys 2011).
//
// Cinder treats energy as a first-class operating-system resource. Two
// kernel abstractions carry the design:
//
//   - a Reserve is the right to use a quantity of energy;
//   - a Tap moves energy between two reserves at a rate (a fixed power,
//     or a fraction of the source per second).
//
// Reserves and taps form a directed graph rooted at the battery. The
// energy-aware scheduler runs a thread only while one of its reserves is
// non-empty, which yields isolation (your fork can only spend your
// share), delegation (pool energy with another principal by tapping into
// a shared reserve), and subdivision (carve a bounded sub-budget for a
// plugin).
//
// Because the original system is a phone kernel measured with a bench
// supply, this package drives a deterministic discrete-time simulation
// with the paper's published power model (699 mW idle, 137 mW CPU,
// 9.5 J radio activations, 20 s radio idle timeout). See DESIGN.md for
// the substitution table and EXPERIMENTS.md for paper-vs-measured
// results.
//
// # Quick start
//
//	sys, _ := cinder.NewSystem(cinder.Options{})
//	// Sandbox a CPU hog to 1 mW, Fig. 5's energywrap:
//	res, tap, _ := sys.Kernel.Wrap(sys.Kernel.Root, "sandbox",
//		sys.Kernel.KernelPriv(), sys.Battery(), cinder.Milliwatts(1), cinder.PublicLabel())
//	sys.Kernel.Spawn(sys.Kernel.Root, "hog", cinder.NoPrivileges(), nil, res)
//	sys.Run(10 * cinder.Second)
//	_ = tap
//
// The packages under internal/ carry the implementation: internal/sim
// (the deterministic next-event time engine), internal/core (reserves,
// taps, consumption graph), internal/sched (energy-aware scheduler),
// internal/kernel (object table, gates, syscall surface, quiescence),
// internal/radio and internal/netd (the §5.5 cooperative network stack),
// internal/apps (the paper's applications), internal/experiments (one
// runner per table and figure), and internal/fleet (concurrent
// simulation of whole device populations; see cmd/cinder-fleet).
package cinder

import (
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/label"
	"repro/internal/netd"
	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/units"
)

// Re-exported types: the ones the examples and commands name, and those
// the facade's own signatures name.
type (
	// Energy is microjoules; Power is microwatts; Time is simulated
	// milliseconds.
	Energy = units.Energy
	Power  = units.Power
	Time   = units.Time

	// Reserve is the paper's §3.2 abstraction.
	Reserve = core.Reserve

	// Kernel bundles the object table, scheduler, graph and gates.
	Kernel = kernel.Kernel

	// Runner is a thread's behaviour.
	Runner = sched.Runner

	// Label and Priv are the §3.5 security label and privilege set.
	Label = label.Label
	Priv  = label.Priv

	// Profile is a device power model.
	Profile = power.Profile

	// Radio is the simulated cellular data path (§4.3).
	Radio = radio.Radio

	// Result is an experiment's outcome.
	Result = experiments.Result

	// Applications from §5.
	Browser        = apps.Browser
	BrowserConfig  = apps.BrowserConfig
	TaskManager    = apps.TaskManager
	TaskManagerCfg = apps.TaskManagerConfig
	Poller         = apps.Poller
	PollerConfig   = apps.PollerConfig
	Wrapped        = apps.Wrapped
)

// Unit constructors and constants.
const (
	Millijoule = units.Millijoule
	Watt       = units.Watt
	Second     = units.Second
	Minute     = units.Minute
)

// Joules converts joules to Energy.
func Joules(j float64) Energy { return units.Joules(j) }

// Milliwatts converts milliwatts to Power.
func Milliwatts(mw float64) Power { return units.Milliwatts(mw) }

// Seconds converts seconds to Time.
func Seconds(s float64) Time { return units.Seconds(s) }

// PublicLabel returns the unrestricted object label.
func PublicLabel() Label { return label.Public() }

// NoPrivileges returns the empty privilege set (an ordinary
// application).
func NoPrivileges() Priv { return label.Priv{} }

// DreamProfile returns the HTC Dream power model (§4.2).
func DreamProfile() Profile { return power.Dream() }

// Options configures a System.
type Options struct {
	// Profile selects the device model; default HTC Dream.
	Profile Profile
	// Seed drives the deterministic RNG.
	Seed int64
	// BatteryCapacity overrides the profile's battery.
	BatteryCapacity Energy
	// DisableDecay turns off the global anti-hoarding half-life
	// (§5.2.2); the default keeps the paper's 50 %/10 min.
	DisableDecay bool
	// CooperativeNetd selects the §5.5 pooling policy (default true);
	// false gives the unrestricted baseline of §6.4.
	CooperativeNetd *bool
	// RadioJitter enables the per-activation cost variation of Fig. 4.
	RadioJitter bool
	// LinuxBilling reproduces Cinder-Linux gate billing (§7.1).
	LinuxBilling bool
}

// System is a fully assembled Cinder instance: kernel, radio device and
// netd, ready for applications.
type System struct {
	Kernel *Kernel
	Radio  *Radio
}

// NewSystem builds a System.
func NewSystem(o Options) (*System, error) {
	cfg := kernel.Config{
		Profile:         o.Profile,
		Seed:            o.Seed,
		BatteryCapacity: o.BatteryCapacity,
	}
	if o.DisableDecay {
		cfg.DecayHalfLife = -1
	}
	if o.LinuxBilling {
		cfg.Billing = kernel.BillDaemon
	}
	k := kernel.New(cfg)
	r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{
		Profile: k.Profile,
		Jitter:  o.RadioJitter,
	})
	k.AddDevice(r)
	coop := true
	if o.CooperativeNetd != nil {
		coop = *o.CooperativeNetd
	}
	if _, err := netd.New(k, r, netd.Config{Cooperative: coop}); err != nil {
		return nil, err
	}
	return &System{Kernel: k, Radio: r}, nil
}

// Battery returns the root reserve.
func (s *System) Battery() *Reserve { return s.Kernel.Battery() }

// Run advances simulated time by d.
func (s *System) Run(d Time) { s.Kernel.Run(d) }

// Consumed returns total energy drawn from the battery so far.
func (s *System) Consumed() Energy { return s.Kernel.Consumed() }

// EnergyWrap confines a workload to a rate limit (§5.1). The tap is
// owned by the caller's privileges.
func (s *System) EnergyWrap(name string, p Priv, from *Reserve, rate Power, tapLbl Label, r Runner) (*Wrapped, error) {
	return apps.EnergyWrap(s.Kernel, s.Kernel.Root, name, p, from, rate, tapLbl, r)
}

// NewBrowser builds the §5.2 browser/plugin pair.
func (s *System) NewBrowser(p Priv, cfg BrowserConfig) (*Browser, error) {
	return apps.NewBrowser(s.Kernel, s.Kernel.Root, p, s.Battery(), cfg)
}

// NewTaskManager builds the §5.4 foreground/background manager.
func (s *System) NewTaskManager(p Priv, cfg TaskManagerCfg) (*TaskManager, error) {
	return apps.NewTaskManager(s.Kernel, s.Kernel.Root, p, s.Battery(), cfg)
}

// NewPoller spawns a periodic network application (§6.4).
func (s *System) NewPoller(name string, p Priv, cfg PollerConfig) (*Poller, error) {
	return apps.NewPoller(s.Kernel, s.Kernel.Root, name, p, s.Battery(), cfg)
}

// Experiments lists the registered paper artifacts (fig3…table1).
func Experiments() []string { return experiments.Names() }

// ExtendedExperiments lists the beyond-the-paper experiments (fig13),
// runnable by name but excluded from the frozen RunAllExperiments
// output. The fleet scenarios run through cmd/cinder-fleet, not here.
func ExtendedExperiments() []string { return experiments.ExtendedNames() }

// RunExperiment executes one registered experiment by ID (paper
// artifact or extended).
func RunExperiment(name string) (Result, error) { return experiments.Run(name) }

// RunAllExperiments executes every paper-artifact experiment. The
// output is byte-stable (frozen by the regression baseline); extended
// experiments run individually via RunExperiment.
func RunAllExperiments() []Result { return experiments.RunAll() }
