package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/snap"
	"repro/internal/units"
)

// This file implements the fleet's one range runner and its epoch
// files. A run proceeds epoch by epoch: one epoch covering the whole
// horizon without a checkpoint dir, one per CheckpointEvery (default:
// one simulated day) with one. Every pass runs the whole device range
// through the worker pool; at a non-final boundary each surviving
// device saves its record (snapshot.go declares every record) at its
// first savable instant at or after the boundary (concludeEpoch), and
// the reducer streams the records into an epoch file in strict device-index
// order. Devices that died during the epoch contribute their final
// DeviceResult instead, which later epochs pass through untouched. The
// final pass aggregates exactly as an uninterrupted run would.
//
// Epoch files are written to a temporary name and renamed only when
// complete, so the newest file with a matching header is always a
// consistent resume point: -resume rebuilds every device from its
// deterministic construction path, loads its record onto it, and
// continues with kernel.ResumeRun — no Run-boundary re-step — making
// the resumed run's canonical report byte-identical to an uninterrupted
// one (the resume-equivalence suite asserts it).

// DefaultCheckpointEvery is the epoch length: one simulated day.
const DefaultCheckpointEvery = 24 * units.Hour

// epochBuffer sizes the buffered writer and reader of an epoch file:
// large enough that a record frame rarely spans two system calls, small
// enough that opening a file each epoch costs no large allocation.
const epochBuffer = 64 << 10

// Epoch record kinds.
const (
	recSnapshot = 1 // a live device's state snapshot
	recResult   = 2 // a dead device's final result, passed through
)

// epochPlan describes the epoch partition of a run's horizon.
type epochPlan struct {
	every units.Time
	count int
}

// planEpochs partitions the horizon. Without a checkpoint dir the whole
// horizon is one final epoch, which writes no file.
func planEpochs(cfg Config) epochPlan {
	if cfg.CheckpointDir == "" {
		return epochPlan{every: cfg.Duration, count: 1}
	}
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	if every > cfg.Duration {
		every = cfg.Duration
	}
	count := int((cfg.Duration + every - 1) / every)
	return epochPlan{every: every, count: count}
}

// end returns the absolute end instant of epoch e.
func (p epochPlan) end(cfg Config, e int) units.Time {
	t := units.Time(e+1) * p.every
	if t > cfg.Duration {
		t = cfg.Duration
	}
	return t
}

// epochPath names epoch e's file; sharded runs get per-shard files.
func epochPath(cfg Config, e int) string {
	name := fmt.Sprintf("epoch-%04d.bin", e)
	if cfg.shardCount > 0 {
		name = fmt.Sprintf("epoch-%04d.shard-%d-of-%d.bin", e, cfg.shardIndex, cfg.shardCount)
	}
	return filepath.Join(cfg.CheckpointDir, name)
}

// epochHeader heads every epoch file: the run's Identity, then the
// checkpoint interval, the epoch index and the device range. A resume
// continues only from a file whose header equals the one this run
// would write. Whether the writing run was the reference is not
// recorded here: every device record's engine section carries its
// mode, and loading it refuses a reference/production mismatch.
type epochHeader struct {
	id     Identity
	every  units.Time
	epoch  int
	lo, hi int
}

// epochWriter streams records into a temporary epoch file, renamed into
// place only once every device in the range has been written — an
// existing epoch file is therefore always complete.
type epochWriter struct {
	f     *os.File
	bw    *bufio.Writer
	path  string
	next  int
	frame []byte // reused frame buffer
}

func newEpochWriter(cfg Config, plan epochPlan, e, lo, hi int) (*epochWriter, error) {
	if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		return nil, err
	}
	path := epochPath(cfg, e)
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	ew := &epochWriter{f: f, bw: bufio.NewWriterSize(f, epochBuffer), path: path, next: lo}
	h := epochHeader{cfg.identity(), plan.every, e, lo, hi}
	blob, err := snap.Save(h.codec)
	if err != nil {
		return nil, err
	}
	ew.writeFrame(0, blob)
	return ew, nil
}

// writeFrame emits one snap frame.
func (ew *epochWriter) writeFrame(kind int, blob []byte) {
	ew.frame = snap.AppendFrame(ew.frame[:0], kind, blob)
	ew.bw.Write(ew.frame)
}

// add appends device idx's record; records must arrive in index order
// (the strict-index reducer guarantees it).
func (ew *epochWriter) add(idx, kind int, blob []byte) error {
	if idx != ew.next {
		return fmt.Errorf("fleet: epoch write out of order: device %d, expected %d", idx, ew.next)
	}
	ew.next++
	ew.writeFrame(kind, blob)
	return nil
}

// finish flushes, closes and atomically publishes the epoch file.
func (ew *epochWriter) finish(hi int) error {
	if ew.next != hi {
		ew.abort()
		return fmt.Errorf("fleet: epoch file incomplete: wrote through device %d, range ends at %d", ew.next, hi)
	}
	if err := ew.bw.Flush(); err != nil {
		ew.abort()
		return err
	}
	if err := ew.f.Close(); err != nil {
		return err
	}
	return os.Rename(ew.path+".tmp", ew.path)
}

// abort discards the temporary file.
func (ew *epochWriter) abort() {
	ew.f.Close()
	os.Remove(ew.path + ".tmp")
}

// epochReader streams records back out of an epoch file.
type epochReader struct {
	f    *os.File
	br   *bufio.Reader
	next int
}

// openEpochReader opens epoch e's file and checks its header frame
// against the run, leaving the reader at device lo's record. A missing
// file is fs.ErrNotExist and a file from a build with another snapshot
// layout snap.ErrVersion (both wrapped); a sound header naming another
// run is errEpochMismatch; anything else is corruption.
func openEpochReader(cfg Config, plan epochPlan, e, lo, hi int) (*epochReader, error) {
	f, err := os.Open(epochPath(cfg, e))
	if err != nil {
		return nil, err
	}
	er := &epochReader{f: f, br: bufio.NewReaderSize(f, epochBuffer), next: lo}
	if err := er.checkHeader(cfg, plan, e, lo, hi); err != nil {
		f.Close()
		return nil, err
	}
	return er, nil
}

func (er *epochReader) checkHeader(cfg Config, plan epochPlan, e, lo, hi int) error {
	kind, blob, err := snap.ReadFrame(er.br)
	if err != nil {
		return fmt.Errorf("epoch header frame: %w", err)
	}
	if kind != 0 {
		return fmt.Errorf("missing epoch header (leading frame kind %d)", kind)
	}
	// A header that does not open is damage; one that opens but does not
	// load is a sound header of another layout.
	if _, err := snap.Open(blob); err != nil {
		return fmt.Errorf("epoch header: %w", err)
	}
	var got epochHeader
	if err := snap.Load(blob, got.codec); err != nil {
		return fmt.Errorf("%w: %v", errEpochMismatch, err)
	}
	if want := (epochHeader{cfg.identity(), plan.every, e, lo, hi}); got != want {
		return fmt.Errorf("%w: file is %+v, run is %+v", errEpochMismatch, got, want)
	}
	return nil
}

// read returns device idx's record and its kind (recSnapshot or
// recResult); calls must arrive in index order.
func (er *epochReader) read(idx int) (int, []byte, error) {
	if idx != er.next {
		return 0, nil, fmt.Errorf("fleet: epoch read out of order: device %d, expected %d", idx, er.next)
	}
	er.next++
	kind, blob, err := snap.ReadFrame(er.br)
	if err == nil && kind != recSnapshot && kind != recResult {
		err = fmt.Errorf("unknown kind %d", kind)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("fleet: epoch record for device %d: %w", idx, err)
	}
	return kind, blob, nil
}

func (er *epochReader) close() { er.f.Close() }

// errEpochMismatch classifies an epoch file that is structurally sound
// but belongs to a different run configuration — not corruption, so
// salvage skips it without quarantining.
var errEpochMismatch = errors.New("fleet: epoch file belongs to a different run")

// verifyEpoch fully validates epoch e's file as a resume point: header
// identity, every record frame present with a valid CRC, exactly the
// shard's device count, and no trailing bytes. It returns nil for a
// usable file, fs.ErrNotExist (wrapped) when absent, errEpochMismatch
// (wrapped) for a sound file from a different run, and any other error
// for corruption — a torn rename, a truncated tail, flipped bits. Only
// full validation is good enough here: the rename-into-place protocol
// makes complete files the common case, but salvage exists precisely
// for the storage failures that break that assumption.
func verifyEpoch(cfg Config, plan epochPlan, e, lo, hi int) error {
	er, err := openEpochReader(cfg, plan, e, lo, hi)
	if errors.Is(err, snap.ErrVersion) {
		// Written by a build with another snapshot layout: sound, just
		// not resumable here, so skip it like a foreign run's file.
		return fmt.Errorf("%w: %v", errEpochMismatch, err)
	}
	if err != nil {
		return err
	}
	defer er.close()
	for idx := lo; idx < hi; idx++ {
		_, blob, err := er.read(idx)
		if err != nil {
			return err
		}
		if _, err := snap.Open(blob); err != nil {
			return fmt.Errorf("record for device %d: %w", idx, err)
		}
	}
	if _, _, err := snap.ReadFrame(er.br); err != io.EOF {
		if err == nil {
			return fmt.Errorf("trailing data after final device %d", hi-1)
		}
		return fmt.Errorf("trailing garbage: %w", err)
	}
	return nil
}

// quarantineEpoch moves a corrupt epoch file aside as <name>.corrupt
// and writes a <name>.corrupt.report describing the damage, so the bad
// bytes stay available for diagnosis while resume falls back past
// them.
func quarantineEpoch(cfg Config, e int, verr error) error {
	path := epochPath(cfg, e)
	if err := os.Rename(path, path+".corrupt"); err != nil {
		return err
	}
	report := fmt.Sprintf(
		"epoch file quarantined by resume salvage\n\n"+
			"file:     %s\n"+
			"moved to: %s.corrupt\n"+
			"error:    %v\n\n"+
			"The resume fell back to the newest older epoch that verifies, so at most\n"+
			"the epochs after it were re-simulated. The report is unaffected (resumed\n"+
			"runs are byte-identical). Delete the .corrupt files once diagnosed.\n",
		path, path, verr)
	return os.WriteFile(path+".corrupt.report", []byte(report), 0o644)
}

// runEpochs simulates the config's device range into the aggregate,
// epoch by epoch (see the file comment).
func runEpochs(cfg Config, workers int, agg *aggregate) error {
	lo, hi := cfg.shardRange()
	plan := planEpochs(cfg)

	// Resume salvage: walk epochs newest-first and continue after the
	// newest one that fully verifies. A missing file is skipped
	// silently (the run may simply not have reached it); a sound file
	// from a different run is skipped with a warning; a corrupt file —
	// torn write, truncation, flipped bits — is quarantined with a
	// report and the walk falls back to the epoch before it, so a bad
	// newest epoch costs re-simulating at most the epochs after the
	// last good one, never the whole run.
	start := 0
	quarantined := 0
	if cfg.Resume || cfg.ResumeAuto {
		for e := plan.count - 2; e >= 0; e-- {
			verr := verifyEpoch(cfg, plan, e, lo, hi)
			if verr == nil {
				start = e + 1
				break
			}
			if errors.Is(verr, fs.ErrNotExist) {
				continue
			}
			if errors.Is(verr, errEpochMismatch) {
				cfg.warnf("fleet: resume: skipping %s: %v", epochPath(cfg, e), verr)
				continue
			}
			cfg.warnf("fleet: resume: quarantining corrupt epoch file %s: %v", epochPath(cfg, e), verr)
			if qerr := quarantineEpoch(cfg, e, verr); qerr != nil {
				return fmt.Errorf("fleet: resume: quarantine %s: %w", epochPath(cfg, e), qerr)
			}
			quarantined++
		}
		if start == 0 && !cfg.ResumeAuto {
			if quarantined > 0 {
				return fmt.Errorf("fleet: -resume: no usable epoch file matching this run in %s "+
					"(%d corrupt file(s) quarantined as *.corrupt — see the *.corrupt.report beside them)",
					cfg.CheckpointDir, quarantined)
			}
			return fmt.Errorf("fleet: -resume: no complete epoch file matching this run in %s", cfg.CheckpointDir)
		}
	}

	m := newMeter(&cfg, lo, hi, plan.count)
	for e := start; e < plan.count; e++ {
		endT, next := plan.end(cfg, e), plan.end(cfg, e+1)
		final := e == plan.count-1
		passStart := units.Time(0)
		if e > 0 {
			passStart = plan.end(cfg, e-1)
		}
		m.pass(e, passStart, endT)

		var in *epochReader
		if e > 0 {
			var err error
			in, err = openEpochReader(cfg, plan, e-1, lo, hi)
			if err != nil {
				return fmt.Errorf("fleet: %s: %w", epochPath(cfg, e-1), err)
			}
		}
		var out *epochWriter
		if !final {
			var err error
			out, err = newEpochWriter(cfg, plan, e, lo, hi)
			if err != nil {
				if in != nil {
					in.close()
				}
				return err
			}
		}

		var feed func(idx int) (int, []byte, error)
		var inName string // names the input file in a record's load error
		if in != nil {
			feed = in.read
			inName = filepath.Base(epochPath(cfg, e-1))
		}
		work := func(idx, kind int, blob []byte, rg *rig) outcome {
			if e > 0 {
				if blob == nil {
					return outcome{err: fmt.Errorf("missing epoch %d snapshot", e-1)}
				}
				if kind == recResult {
					// Died in an earlier epoch: pass the final result
					// through (and decode it on the aggregating pass).
					if final {
						var res DeviceResult
						if err := snap.Load(blob, res.codec); err != nil {
							return outcome{err: fmt.Errorf("%s: %w", inName, err)}
						}
						return outcome{res: res}
					}
					return outcome{blob: blob, kind: recResult}
				}
				d, res, err := buildDevice(cfg, idx, rg)
				if err != nil {
					return outcome{err: err}
				}
				if err := snap.Load(blob, d.codec); err != nil {
					return outcome{err: fmt.Errorf("%s: %w", inName, err)}
				}
				d.Kernel.ResumeRun(endT)
				return concludeEpoch(d, res, final, next)
			}
			d, res, err := buildDevice(cfg, idx, rg)
			if err != nil {
				return outcome{err: err}
			}
			d.Kernel.Run(endT)
			return concludeEpoch(d, res, final, next)
		}
		reduce := func(idx int, o outcome) error {
			if final {
				if err := accept(&cfg, agg, o.res); err != nil {
					return err
				}
				return m.device()
			}
			if err := out.add(idx, o.kind, o.blob); err != nil {
				return err
			}
			return m.device()
		}

		err := pass(cfg, workers, lo, hi, feed, work, reduce)
		if in != nil {
			in.close()
		}
		if err != nil {
			if out != nil {
				out.abort()
			}
			return err
		}
		if out != nil {
			if err := out.finish(hi); err != nil {
				return err
			}
			if err := m.checkpoint(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// concludeEpoch finishes a device's epoch: dead or final-epoch devices
// extract their result; survivors save their record for the next epoch
// at their first savable instant at or after the boundary. While a
// section refuses the save, the device advances one executed instant at
// a time — instants its uninterrupted run executes too — but never past
// next, the following boundary: a device still unsavable there fails the
// run before the epoch file is published. The record carries its own
// clock, so the next pass resumes from wherever the device stopped.
func concludeEpoch(d *Device, res *DeviceResult, final bool, next units.Time) outcome {
	boundary := d.Kernel.Eng.Now()
	for !res.Died && !final {
		blob, err := snap.Save(d.codec)
		if err == nil {
			return outcome{blob: blob, kind: recSnapshot}
		}
		if !stepInstant(d, next) {
			return outcome{err: fmt.Errorf("scenario bucket %q cannot be saved at the %v boundary "+
				"or at any instant up to the next boundary, %v: %w (a phase spans both boundaries: "+
				"pick a -checkpoint-every longer than the scenario's longest phase, which "+
				"docs/fleet-report.md lists)", d.Scenario, boundary, next, err)}
		}
	}
	extractResult(d, res)
	if final {
		return outcome{res: *res}
	}
	blob, err := snap.Save(res.codec)
	return outcome{blob: blob, kind: recResult, err: err}
}

// stepInstant advances d through its next executed instant, but not past
// limit, and reports whether it was short of limit to begin with.
// ResumeRun does not re-step the instant d stands at, so the instants
// stepped are those an uninterrupted run executes, plus limit, which the
// next pass executes anyway as its clamped end.
func stepInstant(d *Device, limit units.Time) bool {
	eng := d.Kernel.Eng
	if eng.Now() >= limit {
		return false
	}
	d.Kernel.ResumeRun(min(max(eng.EarliestWork(nil), eng.Now()+eng.Tick()), limit))
	return true
}
