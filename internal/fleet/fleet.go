// Package fleet simulates populations of independent Cinder devices
// concurrently: N complete systems (kernel, radio, netd, applications),
// each on its own deterministic engine, sharded across a bounded worker
// pool and reduced to aggregate battery-life / consumed-energy /
// utilization statistics.
//
// Determinism is preserved at fleet scale: every device's RNG seed is
// derived from the fleet seed and the device index by a splitmix64 hash,
// devices never share mutable state, and results are reduced in strict
// device-index order through a bounded admission window. The same
// (seed, devices, scenario, duration) always produces identical reports
// regardless of worker count or scheduling, which the package tests
// assert under the race detector.
//
// Three mechanisms make week-scale million-device runs first-class
// workloads (checkpoint.go, shard.go):
//
//   - every aggregate is integer-mergeable (sums, counts, and a
//     log-linear quantile sketch instead of retained sample arrays), so
//     reports stay O(buckets) at any fleet size;
//   - a run can be partitioned by a Job into shards (Job.ShardConfig,
//     RunShard), run in independent processes, whose partial reports
//     merge (Job.Merge) into the exact canonical JSON a single process
//     produces;
//   - a run can checkpoint every device's full state into epoch files at
//     sim-day boundaries and resume after an interruption, byte-identical
//     to an uninterrupted run.
package fleet

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/kernel"
	"repro/internal/msm"
	"repro/internal/netd"
	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/snap"
	"repro/internal/units"
)

// defaultWorkers bounds the pool at the machine's parallelism.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// DefaultLifeResolution is how often a device checks its battery for
// exhaustion (and stops simulating once dead).
const DefaultLifeResolution = units.Second

// Device is one member of the fleet: a fully assembled simulated phone.
// Scenarios install workloads onto it; collectors read it back.
type Device struct {
	Index int
	// Seed is the device's derived RNG seed.
	Seed int64
	// Rand is a deterministic stream for scenario parameter jitter
	// (poll phases, payload spreads), separate from the engine's RNG so
	// workload construction cannot perturb run-time randomness.
	Rand   *splitmix
	Kernel *kernel.Kernel
	Radio  *radio.Radio
	Netd   *netd.Netd
	// Smdd is the device's ARM9 baseband daemon. It is nil until a
	// scenario that needs voice/SMS/GPS calls EnsureSmdd, so pure
	// data-path scenarios pay nothing for the modem model.
	Smdd *msm.Smdd
	// Scenario is the device's workload bucket name for per-scenario
	// report breakdowns. runDevice seeds it with the config scenario's
	// name; Mix overrides it with the chosen entry's name.
	Scenario string
	// Probes are scenario-installed callbacks run after the simulation
	// to add workload counters into the DeviceResult (PollerScenario
	// accumulates completed polls into Polls this way).
	Probes []func(*DeviceResult)
	// Hooks are scenario-installed checkpoint participants: workload
	// counters that live in install-time closures (a browse phase's
	// loaded-page count) register a SnapHook so device snapshots carry
	// them across a resume. Hooks are saved and restored in registration
	// order, which is deterministic because Build is.
	Hooks []SnapHook
}

// SnapHook is one workload's checkpoint participation: a codec over
// its counters, run when the device's record is saved and again when
// it is loaded onto the rebuilt workload.
type SnapHook func(*snap.Codec)

// EnsureSmdd boots the device's baseband daemon (shared-memory channel,
// ARM9 model, smd.* gates) on first use and returns it. Workloads that
// place calls or send SMS call this at install time so the gates exist
// before their phase fires.
func (d *Device) EnsureSmdd() (*msm.Smdd, error) {
	if d.Smdd != nil {
		return d.Smdd, nil
	}
	s, err := msm.NewSmdd(d.Kernel, msm.DefaultSmddConfig(), msm.DefaultARM9Config())
	if err != nil {
		return nil, err
	}
	d.Smdd = s
	return s, nil
}

// DeviceResult is one device's outcome.
type DeviceResult struct {
	Index int
	Seed  int64
	// Scenario is the workload bucket the device was assigned (the
	// scenario name, or the Mix entry's name for mixed fleets).
	Scenario string
	// BatteryLeft is the battery level at the end.
	BatteryLeft units.Energy
	// Died reports battery exhaustion; DiedAt is the instant it was
	// detected (which can legitimately be 0 for a battery too small to
	// cover a single baseline batch).
	Died   bool
	DiedAt units.Time
	// Utilization is the CPU busy percentage: BusyTicks over
	// BusyTicks+IdleTicks.
	Utilization float64
	// Counters is the summable rest of the outcome.
	Counters
}

// Counters is the summable part of a device's outcome: every field is
// an integer that aggregates by addition, so a bucket's sum is itself a
// Counters. It is declared once and carried unchanged through the fleet
// aggregate, the shard partial (its JSON tags are a partial bucket's sum
// fields) and the epoch record; a new counter is a field here plus a
// line in add and codec, and TestCountersRoundTrip fails until
// every codec carries it.
type Counters struct {
	// Consumed is total energy drawn over the run.
	Consumed units.Energy `json:"consumed_uj"`
	// Recharged is external energy credited into the battery by a
	// charger over the run (zero on discharge-only scenarios). It is
	// energy-shaped and mode-independent, so it stays in CanonicalJSON.
	Recharged units.Energy `json:"recharged_uj,omitempty"`
	// Reclaimed is energy the §5.2.2 anti-hoarding decay pulled back
	// out of scenario-flagged hoard reserves (scenario probes fill it;
	// zero elsewhere). Canonical: decay is deterministic.
	Reclaimed units.Energy `json:"reclaimed_uj,omitempty"`
	// BusyTicks and IdleTicks are the integer scheduler quantum counts
	// behind Utilization (the mergeable form the aggregator sums).
	BusyTicks int64 `json:"busy_ticks"`
	IdleTicks int64 `json:"idle_ticks"`
	// RadioActivations counts radio power-ups.
	RadioActivations int64 `json:"radio_activations"`
	// Polls counts completed application-level polls (scenario-defined).
	Polls int64 `json:"polls"`
	// Pages counts completed browsing page loads (Browse workload).
	Pages int64 `json:"pages"`
	// PowerUps counts netd-funded activations.
	PowerUps int64 `json:"netd_power_ups"`
	// SMSSent and CallsPlaced count baseband activity (devices with an
	// Smdd only).
	SMSSent     int64 `json:"sms_sent"`
	CallsPlaced int64 `json:"calls_placed"`
	Diagnostics
}

// Diagnostics are the engine-level counters: how the simulation advanced
// a device, not what the device did. They are the only figures that
// differ between production and the reference configuration (or between
// a checkpointed and an uninterrupted run), so canonical output is the
// full output with every Diagnostics zeroed.
type Diagnostics struct {
	// EngineSteps is the number of simulation instants the device's
	// engine actually executed — the quiescence fast path shows up as
	// EngineSteps ≪ simulated ticks.
	EngineSteps uint64 `json:"engine_steps"`
	// FlowWalks counts per-batch tap walks the device's graph performed;
	// SettledBatches counts batches advanced by closed-form settlement
	// instead. Their ratio is the busy-path fast-path engagement measure.
	FlowWalks      int64 `json:"flow_walks"`
	SettledBatches int64 `json:"settled_batches"`
	// SettledSweeps counts netd sweep boundaries accounted in closed
	// form instead of executed.
	SettledSweeps int64 `json:"settled_sweeps"`
	// SettledCharges counts charger quantum boundaries accounted in
	// closed form instead of executed.
	SettledCharges int64 `json:"settled_charges,omitempty"`
}

// add folds o into c, field by field.
func (c *Counters) add(o *Counters) {
	c.Consumed += o.Consumed
	c.Recharged += o.Recharged
	c.Reclaimed += o.Reclaimed
	c.BusyTicks += o.BusyTicks
	c.IdleTicks += o.IdleTicks
	c.RadioActivations += o.RadioActivations
	c.Polls += o.Polls
	c.Pages += o.Pages
	c.PowerUps += o.PowerUps
	c.SMSSent += o.SMSSent
	c.CallsPlaced += o.CallsPlaced
	c.EngineSteps += o.EngineSteps
	c.FlowWalks += o.FlowWalks
	c.SettledBatches += o.SettledBatches
	c.SettledSweeps += o.SettledSweeps
	c.SettledCharges += o.SettledCharges
}

// Scenario builds a workload onto a device. Implementations must be
// safe for concurrent use: Build runs on worker goroutines, one device
// at a time per worker, and must keep all per-device state on the
// Device.
type Scenario interface {
	Name() string
	Build(d *Device) error
}

// DeviceProvision carries per-device hardware parameters a population
// scenario draws before the device's kernel is built — the knobs that
// must be fixed at construction time and therefore cannot be chosen
// from inside Build.
//
// Precedence: a fleet-level Config.BatteryCapacity and a provisioned
// BatteryCapacity are a contradiction — the first says "every device
// gets this battery", the second says "this device draws its own" —
// so buildDevice rejects the combination loudly instead of letting one
// silently win (a -battery-j run against a provisioning scenario used
// to quietly disable the heterogeneous population).
type DeviceProvision struct {
	// BatteryCapacity overrides the profile battery for this device.
	// Zero keeps the fleet-level setting.
	BatteryCapacity units.Energy
	// Profile selects the device's hardware power model. The zero
	// Profile (empty Name) keeps the kernel default (the HTC Dream);
	// a mixed-hardware population provisions power.LaptopT60p() for
	// some devices and the radio, baseline and battery all follow.
	Profile power.Profile
	// StrictHoarding enables the §5.2.2 fundamental anti-hoarding rule
	// on this device's kernel — the per-cohort knob adversarial
	// populations flip on their hoarder slice.
	StrictHoarding bool
}

// Provisioner is optionally implemented by scenarios that model a
// heterogeneous hardware population (WeekInTheLife draws per-device
// battery capacities). Provision must be deterministic in (idx, seed)
// and must not touch the device construction stream — implementations
// derive their own splitmix stream from the seed.
type Provisioner interface {
	Provision(idx int, seed int64) DeviceProvision
}

// Config parameterizes a fleet run.
type Config struct {
	// Devices is the fleet size.
	Devices int
	// Seed is the fleet master seed; per-device seeds derive from it.
	Seed int64
	// Duration is the simulated time horizon per device.
	Duration units.Time
	// Workers bounds concurrency; 0 means one per CPU.
	Workers int
	// Scenario is the workload; required.
	Scenario Scenario
	// BatteryCapacity overrides the profile battery on every device
	// (and any Provisioner draw). Zero keeps the profile battery; a
	// negative capacity is refused.
	BatteryCapacity units.Energy
	// LifeResolution overrides DefaultLifeResolution.
	LifeResolution units.Time
	// Reference runs every device on the reference configuration
	// (kernel.Config.Reference: fixed-tick engine, every periodic task
	// executed, the battery watch polling every LifeResolution) and
	// builds each one fresh instead of recycling worker machinery — the
	// oracle the differential tests and cinder-fleet -reference check
	// production against. Canonical reports are byte-identical either
	// way. The reference is single-process: jobs and shards refuse it.
	Reference bool
	// KeepResults retains the per-device result array on the Report.
	// Off (the default) the run streams each DeviceResult into the
	// aggregate and drops it, so fleet memory stays O(workers + buckets)
	// regardless of size. Turn it on for per-device output.
	KeepResults bool

	// PerDevice, when set, streams every completed device's result out
	// of the reduction frontier, in strict device-index order, without
	// retaining anything — the O(workers) alternative to KeepResults
	// that the cinder-fleet -per-device-out NDJSON emitter rides (and
	// KeepResults itself is implemented as one of these emitters). On
	// checkpointed runs results exist only at the final epoch, so the
	// emitter fires only on the final pass. A non-nil error aborts the
	// run.
	PerDevice func(DeviceResult) error

	// Progress, when set, is called from the reduction frontier as each
	// device completes a pass, and again when a checkpoint epoch is
	// published — the feed behind cinder-fleet's periodic stderr line,
	// runner heartbeats, and the coordinator's /status JSON. It runs on
	// the reducing goroutine, strictly ordered. A non-nil error aborts
	// the run promptly: in-flight devices finish, nothing new is
	// dispatched (how a runner abandons a shard whose lease was lost).
	Progress func(Progress) error

	// Warnf, when set, receives rare operator-facing warning lines —
	// resume salvage skipping or quarantining a damaged epoch file, for
	// example. Nil discards them; warnings never fail the run.
	Warnf func(format string, args ...any)

	// shardIndex/shardCount place the run in a Job's shard plan: shard
	// i of n runs the contiguous range [i·N/n, (i+1)·N/n). Only
	// Job.ShardConfig sets them; zero shardCount means unsharded.
	shardIndex int
	shardCount int

	// CheckpointDir, when set, makes the run interruptible: every
	// device's full state is snapshotted at each CheckpointEvery
	// boundary (zero means the default 24 h; negative is refused), or at
	// its first savable instant after it, into an epoch file, written in
	// strict device-index order. Resume
	// restarts from the last complete epoch instead of t = 0; the
	// resumed run's report is byte-identical to an uninterrupted one.
	CheckpointDir   string
	CheckpointEvery units.Time
	// Resume continues from the newest complete epoch file in
	// CheckpointDir (an error if none matches this config). ResumeAuto
	// is the opportunistic form the coordinator uses when reassigning a
	// lost shard: resume if a matching epoch file exists, start from
	// t = 0 otherwise.
	Resume     bool
	ResumeAuto bool
}

// Progress is one update from a run's reduction frontier: how far the
// current pass has advanced and where the last resumable checkpoint
// sits. Consumers derive rates and ETAs from SimDone/SimTotal against
// their own wall clock — the fleet itself never looks at real time.
type Progress struct {
	// Lo/Hi bound the device index range of the running pass; Done
	// counts devices already reduced within it.
	Lo, Hi, Done int
	// Epoch/Epochs locate the current pass in the checkpoint plan
	// (epoch 0 of 1 for uncheckpointed runs).
	Epoch, Epochs int
	// PassStart/PassEnd are the simulated span each device covers this
	// pass; Horizon is the full per-device horizon.
	PassStart, PassEnd, Horizon units.Time
	// LastCheckpoint is the newest published epoch file's index, -1
	// before any. Checkpointed marks the update announcing an epoch
	// file publication (Done == Hi-Lo on those).
	LastCheckpoint int
	Checkpointed   bool
}

// SimDone is the simulated device-time completed so far: whole passes
// for every device in range plus the current pass's reduced devices.
// (Devices that died early are counted at the full horizon — their
// remaining time costs nothing to "simulate" — so ETAs stay sane.)
func (p Progress) SimDone() units.Time {
	return units.Time(p.Hi-p.Lo)*p.PassStart + units.Time(p.Done)*(p.PassEnd-p.PassStart)
}

// SimTotal is the simulated device-time the whole range covers.
func (p Progress) SimTotal() units.Time {
	return units.Time(p.Hi-p.Lo) * p.Horizon
}

// ProgressText renders how far a run has come for a status line: the
// percent of its simulated device-time done, then — once work and wall
// time have both passed — simulated device-days per wall second and,
// while work remains, the ETA at that rate. cinder-fleet's -progress
// line and cinder-coord's submit -wait line both lead with it.
func ProgressText(done, total units.Time, elapsed time.Duration) string {
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(done) / float64(total)
	}
	line := fmt.Sprintf("%5.1f%%", pct)
	if elapsed <= 0 || done <= 0 {
		return line
	}
	days := float64(done) / float64(24*units.Hour)
	line += fmt.Sprintf("  %.1f device-days/s", days/elapsed.Seconds())
	if total > done {
		eta := time.Duration(float64(total-done) / float64(done) * float64(elapsed))
		line += fmt.Sprintf("  ETA %v", eta.Round(time.Second))
	}
	return line
}

// warnf emits an operator-facing warning line (discarded when no
// Warnf sink is wired).
func (cfg *Config) warnf(format string, args ...any) {
	if cfg.Warnf != nil {
		cfg.Warnf(format, args...)
	}
}

// validate normalizes and checks a config, returning the resolved
// worker count.
func (cfg *Config) validate() (workers int, err error) {
	if cfg.Scenario == nil {
		return 0, fmt.Errorf("fleet: nil scenario")
	}
	id := cfg.identity()
	if err := id.check(); err != nil {
		return 0, err
	}
	cfg.LifeResolution = id.LifeResolution
	if cfg.shardCount > 0 && cfg.KeepResults {
		return 0, fmt.Errorf("fleet: per-device results are not supported on sharded runs")
	}
	if cfg.shardCount > 0 && cfg.Reference {
		return 0, errReferenceSharded
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return 0, fmt.Errorf("fleet: -resume needs a checkpoint dir")
	}
	if cfg.CheckpointEvery < 0 {
		return 0, fmt.Errorf("fleet: negative checkpoint interval (CheckpointEvery) %v", cfg.CheckpointEvery)
	}
	workers = cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	return workers, nil
}

// shardRange returns the contiguous device index range this config
// covers: the whole fleet when unsharded.
func (cfg Config) shardRange() (lo, hi int) {
	return planRange(cfg.Devices, cfg.shardIndex, max(cfg.shardCount, 1))
}

// planRange returns shard i of an n-shard plan's slice of a fleet's
// device indices: [i·devices/n, (i+1)·devices/n). The slices of a plan
// tile [0, devices) in shard order.
func planRange(devices, i, n int) (lo, hi int) {
	return i * devices / n, (i + 1) * devices / n
}

// Run simulates the fleet and returns the aggregate report. With
// Config.CheckpointDir set the run proceeds epoch by epoch, writing a
// resumable snapshot of every device at each boundary (checkpoint.go);
// otherwise the whole horizon is one final epoch that writes no file.
//
// Devices are dispatched to the worker pool through a bounded admission
// window and their results are reduced strictly in index order as they
// stream back, so the run never holds more than O(workers) in-flight
// results plus O(buckets) aggregate state — per-device results are
// dropped after reduction unless cfg.KeepResults asks for them.
//
// A single-process run is the one-shard case of a sharded run: it packs
// its aggregate into the Partial of shard 0 of 1 and builds the report
// through Merge, the same code a cluster merge runs. Run also accepts
// that shard's config from Job.ShardConfig; any other shard runs
// through RunShard.
func Run(cfg Config) (Report, error) {
	workers, err := cfg.validate()
	if err != nil {
		return Report{}, err
	}
	if cfg.shardCount > 1 {
		return Report{}, fmt.Errorf("fleet: shard %d of %d runs through RunShard", cfg.shardIndex, cfg.shardCount)
	}
	var results []DeviceResult
	if cfg.KeepResults {
		// Result retention is itself a PerDevice emitter: the run
		// streams either way, and the array exists only here.
		user := cfg.PerDevice
		cfg.PerDevice = func(r DeviceResult) error {
			results = append(results, r)
			if user != nil {
				return user(r)
			}
			return nil
		}
	}
	p, err := runShard(cfg, workers)
	if err != nil {
		return Report{}, err
	}
	rep, err := Merge([]*Partial{p})
	if err != nil {
		return Report{}, err
	}
	rep.Workers = workers
	rep.Results = results
	return rep, nil
}

// accept folds one final device result into the aggregate and streams
// it to the PerDevice emitter.
func accept(cfg *Config, agg *aggregate, res DeviceResult) error {
	agg.add(res)
	if cfg.PerDevice == nil {
		return nil
	}
	return cfg.PerDevice(res)
}

// errReferenceSharded is the refusal every sharded or job entry point
// gives the reference configuration.
var errReferenceSharded = fmt.Errorf("fleet: the reference configuration (-reference) is single-process; " +
	"jobs, shards and partials do not carry it")

// DeriveSeed maps (fleet seed, device index) to a device RNG seed via
// splitmix64, the standard seed-sequencing finalizer: consecutive
// indices land far apart in the stream.
func DeriveSeed(fleetSeed int64, idx int) int64 {
	s := splitmix{state: uint64(fleetSeed) + uint64(idx)*0x9E3779B97F4A7C15}
	return int64(s.Next())
}

// splitmix is a tiny deterministic stream for scenario construction.
type splitmix struct{ state uint64 }

func newSplitmix(seed int64) *splitmix { return &splitmix{state: uint64(seed)} }

// Next returns the next 64-bit value in the stream.
func (s *splitmix) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	x := s.state
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Intn returns a deterministic value in [0, n).
func (s *splitmix) Intn(n int64) int64 {
	if n <= 0 {
		panic("fleet: Intn on non-positive bound")
	}
	return int64(s.Next() % uint64(n))
}
