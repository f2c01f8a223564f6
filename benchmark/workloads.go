package main

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/delivery"
	"repro/internal/fleet"
	"repro/internal/units"
)

const (
	day = 24 * units.Hour

	// workers matches the benchmark host's two cores: fleet workloads
	// run two simulation workers, the cluster two runners of one each.
	workers = 2

	// shardDevices sizes the cluster's shards (250 devices each).
	shardDevices = 250
)

// workload is one benchmark input family. A repetition simulates
// devices devices; each repetition of a run draws its own fleet seed
// from the run's seed (repSeed), so one run samples many populations.
type workload struct {
	name, why string
	devices   int
	// opDevices is how many devices one operation covers: one per
	// device on the fleet workloads, a shard's worth on the cluster.
	opDevices int
	// pin is the md5 of the canonical report of the repetition with
	// fleet seed 1 at this size (repetition 0 of seed 1).
	pin string
	run func(r *rep) error
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []*workload{
	{
		name:      "day-mix",
		why:       "canonical idle/commuter/chatty mix; CPU spread over core, radio, netd, kernel and sim; no checkpoints or coordinator",
		devices:   3000,
		opDevices: 1,
		pin:       "540ecb62f56051d05d58f76f812090e3",
		run:       runFleet("dayinthelife", day),
	},
	{
		name:      "hoarders",
		why:       "adversarial lax/strict hoarding cohorts: proportional taps, decay and reclamation keep most CPU in core tap settlement",
		devices:   60,
		opDevices: 1,
		pin:       "2ec2f636b48ae3a6b98636c45f0a7590",
		run:       runFleet("adversarial", day),
	},
	{
		name:      "month-ckpt",
		why:       "30 days with daily epoch files, then resume from the newest: the only workload writing and reading checkpoints",
		devices:   40,
		opDevices: 1,
		pin:       "a71eb753e0f3c6a66326c67b980b9ccf",
		run:       runMonth,
	},
	{
		name:      "cluster-idle",
		why:       "idle week over an HTTP-loopback coordinator with a journal: per-device and per-shard fixed costs, coord and delivery",
		devices:   120_000,
		opDevices: shardDevices,
		pin:       "786d08bb6bdf224bfd00f3d7a1478064",
		run:       runCluster,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// ops is how many operations one repetition attempts: devices on the
// fleet workloads, shard leases on the cluster.
func (w *workload) ops() int { return w.devices / w.opDevices }

// repSeed is the fleet seed of repetition k of a run with seed seed.
// Repetition 0 uses the run's seed itself, so seed 1 reproduces the pin.
func repSeed(seed int64, k int) int64 { return seed + 1_000_003*int64(k) }

// repOut is what one repetition reports to the parent process.
type repOut struct {
	MD5        string  `json:"md5"`
	SetupS     float64 `json:"setup_s"`
	TimedS     float64 `json:"timed_s"`
	DeviceDays float64 `json:"device_days"`
	Ops        int     `json:"ops"`
	FailedOps  int     `json:"failed_ops"`
	// Checks lists failed correctness checks.
	Checks []string `json:"checks,omitempty"`
	// Layer holds the per-layer counters and phase times.
	Layer map[string]float64 `json:"layer"`
	// Spans (call durations in ms by span name) and CPU (seconds by
	// profile layer) come from traced repetitions only.
	Spans map[string][]float64 `json:"spans,omitempty"`
	CPU   map[string]float64   `json:"cpu,omitempty"`
}

// rep is one repetition: its inputs, its clocks, and when traced its
// span recorder and CPU profile.
type rep struct {
	w       *workload
	devices int
	seed    int64
	dir     string // working directory; the caller removes it
	rec     *recorder
	// traceDir receives the traced repetition's spans and CPU profile.
	traceDir string

	t0, begun time.Time
	mem0      runtime.MemStats
	prof      *os.File
	canonical []byte
	out       repOut
}

func newRep(w *workload, devices int, seed int64, dir, traceDir string, t0 time.Time) *rep {
	r := &rep{w: w, devices: devices, seed: seed, dir: dir, traceDir: traceDir, t0: t0}
	r.out.Layer = map[string]float64{}
	if traceDir != "" {
		r.rec = newRecorder(w.name)
	}
	return r
}

// scenario returns the registry scenario, build-timed when traced.
func (r *rep) scenario(name string) (fleet.Scenario, error) {
	sc, ok := fleet.Scenarios()[name]
	if !ok {
		return nil, fmt.Errorf("scenario %q is not registered", name)
	}
	if r.rec != nil {
		sc = traceScenario(sc, r.rec)
	}
	return sc, nil
}

// begin ends set-up and starts the timed phase.
func (r *rep) begin() error {
	runtime.ReadMemStats(&r.mem0)
	if r.rec != nil {
		f, err := os.Create(filepath.Join(r.traceDir, r.w.name+".cpu.pprof"))
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		r.prof = f
	}
	r.begun = time.Now()
	r.out.SetupS = r.begun.Sub(r.t0).Seconds()
	return nil
}

// phase times one phase of the repetition (recording it as a span when
// traced) and returns the function that ends it and reports its length.
func (r *rep) phase(name string) func() time.Duration {
	start := time.Now()
	end := func() {}
	if r.rec != nil {
		end = r.rec.enterPhase(name)
	}
	return func() time.Duration {
		end()
		return time.Since(start)
	}
}

// finish renders the report inside the timed phase, ends the phase, and
// derives the report's counters and sanity checks.
func (r *rep) finish(rep fleet.Report, timedDeviceDays float64) error {
	end := r.phase("report")
	b, err := rep.CanonicalJSON(false)
	r.out.Layer["fleet.report_json_ms"] = ms(end())
	if err != nil {
		return err
	}
	r.canonical = b
	sum := md5.Sum(b)
	r.out.MD5 = hex.EncodeToString(sum[:])

	r.out.TimedS = time.Since(r.begun).Seconds()
	r.out.DeviceDays = timedDeviceDays
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if r.prof != nil {
		pprof.StopCPUProfile()
		if err := r.prof.Close(); err != nil {
			return err
		}
	}

	dd := deviceDays(rep.Devices, rep.Duration)
	walks, settled := float64(rep.TotalFlowWalks), float64(rep.TotalSettledBatches)
	frac := 0.0
	if walks+settled > 0 {
		frac = settled / (walks + settled)
	}
	for k, v := range map[string]float64{
		"sim.instants_per_dd":           float64(rep.TotalEngineSteps) / dd,
		"core.flow_walks_per_dd":        walks / dd,
		"core.settled_batches_per_dd":   settled / dd,
		"core.settled_frac":             frac,
		"netd.settled_sweeps_per_dd":    float64(rep.TotalSettledSweeps) / dd,
		"kernel.settled_charges_per_dd": float64(rep.TotalSettledCharges) / dd,
		"runtime.allocs_per_dd":         float64(mem.Mallocs-r.mem0.Mallocs) / timedDeviceDays,
		"runtime.alloc_bytes_per_dd":    float64(mem.TotalAlloc-r.mem0.TotalAlloc) / timedDeviceDays,
		"runtime.gc_cycles":             float64(mem.NumGC - r.mem0.NumGC),
	} {
		r.out.Layer[k] = v
	}
	r.checkReport(rep)
	return nil
}

// checkReport applies the structural checks every report must pass
// whatever its seed: the configured population, and per-bucket device
// counts and energy sums that add up to the fleet totals.
func (r *rep) checkReport(rep fleet.Report) {
	if rep.Devices != r.devices {
		r.fail("report covers %d devices, ran %d", rep.Devices, r.devices)
	}
	devices, consumed := 0, units.Energy(0)
	for _, b := range rep.Buckets {
		devices += b.Devices
		consumed += b.TotalConsumed
	}
	if devices != rep.Devices || consumed != rep.TotalConsumed {
		r.fail("buckets sum to %d devices and %v consumed, report says %d and %v",
			devices, consumed, rep.Devices, rep.TotalConsumed)
	}
	if rep.Dead > rep.Devices || rep.TotalConsumed <= 0 {
		r.fail("implausible report: %d of %d devices dead, %v consumed", rep.Dead, rep.Devices, rep.TotalConsumed)
	}
}

func (r *rep) fail(format string, args ...any) {
	r.out.Checks = append(r.out.Checks, fmt.Sprintf(format, args...))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func deviceDays(devices int, horizon units.Time) float64 {
	return float64(devices) * horizon.Seconds() / 86400
}

// runFleet is a plain single-process fleet run of a registry scenario.
func runFleet(scenario string, horizon units.Time) func(*rep) error {
	return func(r *rep) error {
		sc, err := r.scenario(scenario)
		if err != nil {
			return err
		}
		cfg := fleet.Config{Devices: r.devices, Seed: r.seed, Duration: horizon, Workers: workers, Scenario: sc}
		if err := r.begin(); err != nil {
			return err
		}
		end := r.phase("run")
		rep, err := fleet.Run(cfg)
		end()
		if err != nil {
			return err
		}
		r.out.Ops = r.devices
		return r.finish(rep, deviceDays(r.devices, horizon))
	}
}

// runMonth runs thirty days with an epoch file per day, then resumes
// from the newest epoch; the resumed report must equal the first.
func runMonth(r *rep) error {
	const horizon = 30 * day
	sc, err := r.scenario("monthinthelife")
	if err != nil {
		return err
	}
	cfg := fleet.Config{
		Devices: r.devices, Seed: r.seed, Duration: horizon, Workers: workers, Scenario: sc,
		CheckpointDir: filepath.Join(r.dir, "epochs"), CheckpointEvery: day,
	}
	if err := r.begin(); err != nil {
		return err
	}
	end := r.phase("run")
	if r.rec != nil {
		cfg.Progress = r.rec.epochs()
	}
	full, err := fleet.Run(cfg)
	end()
	if err != nil {
		return err
	}
	epochs, bytes, err := epochFiles(cfg.CheckpointDir)
	if err != nil {
		return err
	}

	cfg.Progress, cfg.Resume = nil, true
	end = r.phase("resume")
	resumed, err := fleet.Run(cfg)
	r.out.Layer["fleet.resume_ms"] = ms(end())
	if err != nil {
		return err
	}
	r.out.Ops = r.devices
	r.out.Layer["checkpoint.epochs"] = float64(epochs)
	if epochs > 0 {
		r.out.Layer["checkpoint.bytes_per_device"] = float64(bytes) / float64(epochs*r.devices)
	}
	resumedDays := horizon - units.Time(epochs)*day
	if err := r.finish(full, deviceDays(r.devices, horizon+resumedDays)); err != nil {
		return err
	}
	b, err := resumed.CanonicalJSON(false)
	if err != nil {
		return err
	}
	if string(b) != string(r.canonical) {
		r.fail("report resumed from epoch %d differs from the uninterrupted report", epochs-1)
	}
	return nil
}

// epochFiles counts the epoch files in dir and their total size.
func epochFiles(dir string) (n int, bytes int64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "epoch-") || !strings.HasSuffix(e.Name(), ".bin") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		n++
		bytes += info.Size()
	}
	return n, bytes, nil
}

// runCluster runs an idle week as a sharded job: a coordinator with its
// journal behind the HTTP delivery handler on a loopback listener, the
// job submitted in-process, and two runners of one worker each claiming
// shards over HTTP, each claiming its next shard only after completing
// the previous one.
func runCluster(r *rep) error {
	const horizon = 7 * day
	sc, err := r.scenario("idle")
	if err != nil {
		return err
	}
	cfg := fleet.Config{
		Devices: r.devices, Seed: r.seed, Duration: horizon, Scenario: sc,
		CheckpointDir: filepath.Join(r.dir, "journal"), CheckpointEvery: horizon,
	}
	job, err := fleet.NewJob(cfg, r.devices/shardDevices)
	if err != nil {
		return err
	}
	co := coord.New(coord.Options{})
	defer co.Close()
	svc := &service{Service: co, rec: r.rec, parts: map[int]*fleet.Partial{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: delivery.Handler(svc)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	}()
	if err := co.Submit(job); err != nil {
		return err
	}
	var transportErrs atomic.Int64
	conns := make([]*conn, workers)
	for i := range conns {
		conns[i] = &conn{Conn: delivery.DialHTTP("http://" + ln.Addr().String()), rec: r.rec,
			errors: &transportErrs, claims: map[int]func(){}}
		defer conns[i].Close()
	}

	if err := r.begin(); err != nil {
		return err
	}
	end := r.phase("run")
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i, c := range conns {
		runner := &coord.Runner{ID: fmt.Sprintf("runner-%d", i), Conn: c, Workers: 1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner.Run(ctx)
		}()
	}
	rep, err := co.Wait(ctx)
	cancel()
	wg.Wait()
	end()
	if err != nil {
		return err
	}
	if err := r.finish(rep, deviceDays(r.devices, horizon)); err != nil {
		return err
	}

	// After the timed phase: the benchmark's own merge of the accepted
	// partials must reproduce the coordinator's report.
	svc.mu.Lock()
	parts := make([]*fleet.Partial, 0, len(svc.parts))
	for _, p := range svc.parts {
		parts = append(parts, p)
	}
	svc.mu.Unlock()
	sort.Slice(parts, func(i, j int) bool { return parts[i].ShardIndex < parts[j].ShardIndex })
	end = r.phase("merge")
	merged, err := job.Merge(parts)
	r.out.Layer["fleet.merge_ms"] = ms(end())
	if err != nil {
		return err
	}
	b, err := merged.CanonicalJSON(false)
	if err != nil {
		return err
	}
	if string(b) != string(r.canonical) {
		r.fail("merge of the %d accepted partials differs from the coordinator's report", len(parts))
	}

	leases := 0
	for _, s := range co.Status().Shards {
		leases += s.Attempts
		r.out.FailedOps += max(0, s.Attempts-1)
	}
	r.out.Ops = leases
	r.out.FailedOps += int(transportErrs.Load())
	r.out.Layer["coord.leases"] = float64(leases)
	return nil
}
