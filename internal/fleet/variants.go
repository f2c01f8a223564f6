package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"repro/internal/units"
)

// Variant is an execution shape a fleet run must not be able to
// observe: under any of them, a config reports the bytes its plain run
// reports. DESIGN.md ("Execution variants") says what each one runs and
// compares.
type Variant int

// The variants CheckVariants runs.
const (
	VaryWorkers Variant = iota
	VaryShards
	VaryResume
	VaryStream
	VaryReference
)

// variantRuns names each variant and runs it against a plain run,
// returning the device-days it simulated.
var variantRuns = [...]struct {
	name string
	run  func(*variantCheck) (float64, error)
}{
	VaryWorkers:   {"workers", (*variantCheck).workers},
	VaryShards:    {"shards", (*variantCheck).shards},
	VaryResume:    {"resume", (*variantCheck).resume},
	VaryStream:    {"stream", (*variantCheck).stream},
	VaryReference: {"reference", (*variantCheck).reference},
}

func (v Variant) String() string {
	if v < 0 || int(v) >= len(variantRuns) {
		return fmt.Sprintf("Variant(%d)", int(v))
	}
	return variantRuns[v].name
}

// CheckVariants runs cfg once plainly, then under each variant, and
// compares each variant's report bytes with the plain run's; the plain
// run keeps its per-device results when there are variants. It returns
// the plain report and the device-days the variants simulated. A
// mismatch is an error naming the scenario, the variant and the first
// differing bytes.
func CheckVariants(cfg Config, variants ...Variant) (Report, float64, error) {
	cfg.KeepResults = cfg.KeepResults || len(variants) > 0
	plain, err := Run(cfg)
	if err != nil {
		return Report{}, 0, fmt.Errorf("fleet: scenario %q, plain run: %w", cfg.identity().Scenario, err)
	}
	vc := &variantCheck{cfg: cfg, plain: plain}
	total := 0.0
	for _, v := range variants {
		if v < 0 || int(v) >= len(variantRuns) {
			return plain, 0, fmt.Errorf("fleet: unknown variant %d", v)
		}
		days, err := variantRuns[v].run(vc)
		if err != nil {
			return plain, 0, fmt.Errorf("fleet: scenario %q under variant %s: %w", cfg.identity().Scenario, v, err)
		}
		total += days
	}
	return plain, total, nil
}

// variantCheck holds the plain run the variants compare against.
type variantCheck struct {
	cfg   Config
	plain Report
}

// deviceDays is the simulated coverage of devices over span.
func deviceDays(devices int, span units.Time) float64 {
	return float64(devices) * span.Seconds() / 86400
}

// same compares a variant's bytes with the plain run's.
func same(what string, plain, got []byte) error {
	if bytes.Equal(plain, got) {
		return nil
	}
	return fmt.Errorf("%s diverges from the plain run\n%s", what, firstDiff(plain, got))
}

// sameReport compares rep's JSON, full or canonical, with the plain
// run's.
func (vc *variantCheck) sameReport(what string, rep Report, perDevice, canonical bool) error {
	a, errA := vc.plain.marshalJSON(perDevice, canonical)
	b, errB := rep.marshalJSON(perDevice, canonical)
	if err := errors.Join(errA, errB); err != nil {
		return err
	}
	return same(what, a, b)
}

// rerun runs cfg, which keeps its results, and compares its report
// with the plain run's.
func (vc *variantCheck) rerun(what string, cfg Config, canonical bool) error {
	rep, err := Run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return vc.sameReport(what, rep, true, canonical)
}

func (vc *variantCheck) workers() (float64, error) {
	for _, w := range []int{1, 2, 7} {
		cfg := vc.cfg
		cfg.Workers = w
		if err := vc.rerun(fmt.Sprintf("the %d-worker report", w), cfg, false); err != nil {
			return 0, err
		}
	}
	return 3 * deviceDays(vc.cfg.Devices, vc.cfg.Duration), nil
}

func (vc *variantCheck) reference() (float64, error) {
	cfg := vc.cfg
	cfg.Reference = true
	return deviceDays(cfg.Devices, cfg.Duration), vc.rerun("the reference report", cfg, true)
}

func (vc *variantCheck) stream() (float64, error) {
	cfg := vc.cfg
	cfg.KeepResults = false
	var streamed []DeviceResult
	cfg.PerDevice = func(r DeviceResult) error {
		streamed = append(streamed, r)
		return nil
	}
	rep, err := Run(cfg)
	if err != nil {
		return 0, err
	}
	if rep.Results != nil || len(streamed) != len(vc.plain.Results) {
		return 0, fmt.Errorf("streamed %d results and kept %d, want %d and none",
			len(streamed), len(rep.Results), len(vc.plain.Results))
	}
	for i, r := range streamed {
		if want := vc.plain.Results[i]; r.Index != i || r != want {
			return 0, fmt.Errorf("streamed result %d diverges from the plain run's\n  plain:   %+v\n  variant: %+v", i, want, r)
		}
	}
	return deviceDays(cfg.Devices, cfg.Duration), vc.sameReport("the streamed report", rep, false, false)
}

func (vc *variantCheck) resume() (float64, error) {
	dir, err := os.MkdirTemp("", "fleet-resume-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cfg := vc.cfg
	cfg.CheckpointDir = dir
	// Aborting from Progress is the in-process stand-in for a kill.
	killed, errKilled := cfg, errors.New("killed after the first checkpoint")
	killed.Progress = func(p Progress) error {
		if p.Checkpointed {
			return errKilled
		}
		return nil
	}
	if _, err := Run(killed); !errors.Is(err, errKilled) {
		return 0, fmt.Errorf("the run was not killed after a first checkpoint (it needs two epochs): %v", err)
	}
	cfg.Resume = true
	// The killed run simulated the first epoch, the resumed one the rest.
	return deviceDays(cfg.Devices, cfg.Duration), vc.rerun("the resumed report", cfg, true)
}

func (vc *variantCheck) shards() (float64, error) {
	cfg := vc.cfg
	parts, err := jobPartials(cfg, false, 0, 1, 2)
	if err != nil {
		return 0, err
	}
	merged, err := Merge([]*Partial{parts[2], parts[0], parts[1]})
	if err != nil {
		return 0, err
	}
	if err := vc.sameReport("the merged report", merged, false, false); err != nil {
		return 0, err
	}

	// Shard 1 again, checkpointed, then resumed from its newest epoch.
	dir, err := os.MkdirTemp("", "fleet-shard-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cfg.CheckpointDir = dir
	var ck [2][]byte
	for i, resume := range []bool{false, true} {
		p, err := jobPartials(cfg, resume, 1)
		if err != nil {
			return 0, err
		}
		if ck[i], err = p[0].JSON(); err != nil {
			return 0, err
		}
	}
	plan := planEpochs(cfg)
	lo, hi := planRange(cfg.Devices, 1, 3)
	last := cfg.Duration - units.Time(plan.count-1)*plan.every
	days := deviceDays(cfg.Devices, cfg.Duration) + deviceDays(hi-lo, cfg.Duration+last)
	return days, same("the resumed shard's partial", ck[0], ck[1])
}

// jobPartials runs the given shards of a 3-shard job of cfg, resuming
// them if asked, and round-trips each partial through its JSON.
func jobPartials(cfg Config, resume bool, shards ...int) ([]*Partial, error) {
	job, err := NewJob(cfg, 3)
	if err != nil {
		return nil, err
	}
	var parts []*Partial
	for _, i := range shards {
		scfg, err := job.ShardConfig(i)
		if err != nil {
			return nil, err
		}
		scfg.Workers, scfg.Resume = cfg.Workers, resume
		p, err := RunShard(scfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		b, err := p.JSON()
		if err != nil {
			return nil, err
		}
		if p, err = ParsePartial(b); err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return parts, nil
}

// firstDiff renders the first divergent region of two byte slices.
func firstDiff(plain, got []byte) string {
	i := 0
	for i < len(plain) && i < len(got) && plain[i] == got[i] {
		i++
	}
	lo := max(i-120, 0)
	return fmt.Sprintf("first divergence at byte %d (of %d and %d):\n  plain:   …%s…\n  variant: …%s…",
		i, len(plain), len(got), plain[lo:min(i+120, len(plain))], got[lo:min(i+120, len(got))])
}
