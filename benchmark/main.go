// Command cinder-bench is the repository benchmark. One invocation
// measures one workload for a fixed time: it re-executes itself once per
// repetition, each child simulating one population drawn from the run's
// seed, and prints per-repetition lines, a summary, and as its last line
// one JSON object with the run's metrics.
//
// Untraced runs (-trace 0) report the end-to-end metrics. Traced runs
// (-trace 1) alternate untraced and traced repetitions of the same
// populations and report the per-layer metrics: counters from the
// reports, spans recorded around calls into each layer's API, and a CPU
// profile charged to the repository's packages. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// buildDir holds everything a run writes, relative to the directory
	// it runs in (the repository root).
	buildDir = ".bench_build"

	// childTimeout bounds one repetition; runDeadline bounds the whole
	// run, so a hung child still lets the run end in time.
	childTimeout = 120 * time.Second
	runDeadline  = 170 * time.Second

	// pinSeed is the run seed whose first repetition is pinned.
	pinSeed = 1
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cinder-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (day-mix, hoarders, month-ckpt, cluster-idle)")
	seed := fs.Int64("seed", pinSeed, "input seed; repetition 0 of seed 1 is pinned to a known report md5")
	seconds := fs.Int("seconds", 30, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics")
	child := fs.Bool("child", false, "internal: run one repetition and print its result")
	dir := fs.String("dir", "", "internal: the repetition's working directory")
	t0 := fs.Int64("t0", 0, "internal: the parent's clock (Unix ns) just before starting the child")
	cal := fs.Bool("calibrate", false, "internal: time the calibration load and print it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cal {
		fmt.Fprintln(stdout, calibrate())
		return 0
	}
	w, err := findWorkload(*name)
	switch {
	case err != nil:
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	case *seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1, not %d", *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cinder-bench:", err)
		return 2
	}

	if *child {
		traceDir := ""
		if *trace == 1 {
			traceDir = filepath.Join(buildDir, "trace")
		}
		if err := runChild(w, *seed, *dir, traceDir, time.Unix(0, *t0), stdout); err != nil {
			fmt.Fprintf(stderr, "cinder-bench: %s seed %d: %v\n", w.name, *seed, err)
			return 1
		}
		return 0
	}

	res, err := drive(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "cinder-bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "cinder-bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintln(stderr, "cinder-bench: INCORRECT: see the check lines above")
		return 1
	}
	return 0
}

// runChild runs one repetition and prints its repOut as one JSON line.
func runChild(w *workload, seed int64, dir, traceDir string, t0 time.Time, stdout io.Writer) error {
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
	}
	r := newRep(w, w.devices, seed, dir, traceDir, t0)
	if err := w.run(r); err != nil {
		return err
	}
	if err := r.closeTrace(); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(r.out)
}

// closeTrace writes a traced repetition's spans and charges its CPU
// profile to layers.
func (r *rep) closeTrace() error {
	if r.rec == nil {
		return nil
	}
	if err := r.rec.close(filepath.Join(r.traceDir, r.w.name+".spans.ndjson")); err != nil {
		return err
	}
	r.out.Spans = r.rec.durations()
	data, err := os.ReadFile(filepath.Join(r.traceDir, r.w.name+".cpu.pprof"))
	if err != nil {
		return err
	}
	samples, err := parseProfile(data)
	if err != nil {
		return err
	}
	r.out.CPU = cpuByLayer(samples)
	return nil
}

// child is one finished repetition as the parent saw it.
type child struct {
	idx    int // repetition index: the population drawn from the run seed
	traced bool
	err    error
	out    repOut
	// wallS is the child's whole lifetime; cpuS and rssMB come from its
	// rusage.
	wallS, cpuS, rssMB float64
	// speed is the host's slowdown around the repetition: the mean of
	// the calibrate times just before and after it, over calibrationRef.
	speed float64
}

// drive runs repetitions of w until the next one would overrun budget,
// then summarizes them.
func drive(w *workload, seed int64, budget time.Duration, trace bool, log io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	work := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "cinder-bench: workload %s, seed %d, %v, trace %v; GOMAXPROCS %d, NumCPU %d, %s\n",
		w.name, seed, budget, trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	start := time.Now()
	minReps := 3
	if trace {
		minReps = 4
	}
	var kids []child
	var iters []float64 // seconds per repetition plus its calibration
	cal, err := calibrateChild(exe)
	if err != nil {
		return result{}, err
	}
	for k := 0; ; k++ {
		elapsed := time.Since(start)
		if k >= minReps && elapsed+time.Duration(median(iters)*float64(time.Second)) > budget {
			break
		}
		timeout := min(childTimeout, runDeadline-elapsed)
		if timeout <= 0 {
			break
		}
		c := child{idx: k, traced: trace && k%2 == 1}
		if trace {
			c.idx = k / 2
		}
		t := time.Now()
		spawn(exe, work, w, repSeed(seed, c.idx), timeout, &c)
		before := cal
		if cal, err = calibrateChild(exe); err != nil {
			return result{}, err
		}
		c.speed = (before + cal) / 2 / calibrationRef
		iters = append(iters, time.Since(t).Seconds())
		kids = append(kids, c)
		logChild(log, w, seed, c)
	}
	return summarize(w, seed, trace, kids, log), nil
}

// calibrateChild runs calibrate in a child process, which keeps the
// parent's own memory small: a child's peak RSS as the kernel reports it
// is never below its parent's at the fork.
func calibrateChild(exe string) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, exe, "-calibrate").Output()
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// spawn runs one repetition in a child process and waits for it.
func spawn(exe, work string, w *workload, seed int64, timeout time.Duration, c *child) {
	dir, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		c.err = err
		return
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	trace := "0"
	if c.traced {
		trace = "1"
	}
	var stdout bytes.Buffer
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-trace", trace, "-dir", dir, "-t0", strconv.FormatInt(t0.UnixNano(), 10))
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	err = cmd.Run()
	c.wallS = time.Since(t0).Seconds()
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.cpuS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
			c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	switch {
	case ctx.Err() != nil:
		c.err = fmt.Errorf("timed out after %v", timeout)
	case err != nil:
		c.err = err
	default:
		c.err = json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &c.out)
	}
}

func logChild(log io.Writer, w *workload, seed int64, c child) {
	mode := "untraced"
	if c.traced {
		mode = "traced"
	}
	if c.err != nil {
		fmt.Fprintf(log, "rep %d (%s, fleet seed %d): FAILED after %.2f s: %v\n", c.idx, mode, repSeed(seed, c.idx), c.wallS, c.err)
		return
	}
	fmt.Fprintf(log, "rep %d (%s, fleet seed %d): setup %.4f s, timed %.3f s, %.1f dd/s, cpu %.3f s, rss %.1f MiB, host speed %.3f, md5 %s\n",
		c.idx, mode, repSeed(seed, c.idx), c.out.SetupS, c.out.TimedS, c.out.DeviceDays/c.out.TimedS,
		c.cpuS, c.rssMB, c.speed, c.out.MD5)
}
