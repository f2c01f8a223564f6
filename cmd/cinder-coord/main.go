// cinder-coord is the fleet-as-a-service control plane: it serves a
// coordinator over HTTP, accepts one job, leases its shards to
// cinder-fleet runners, and merges their partial reports into the
// same JSON a single-process run emits — byte for byte. See
// docs/cluster.md for the full workflow.
//
// Usage:
//
//	cinder-coord serve -listen 127.0.0.1:9090
//	cinder-coord submit -coord http://127.0.0.1:9090 \
//	    -scenario weekinthelife -devices 10000 -duration 168h \
//	    -shards 16 -checkpoint-dir /shared/ckpt -wait -o report.json
//	cinder-coord status -coord http://127.0.0.1:9090
//	cinder-coord result -coord http://127.0.0.1:9090 -o report.json
//
// A job submitted with -checkpoint-dir is journaled there: if the
// coordinator dies mid-job (kill -9 included), restart it with
//
//	cinder-coord serve -listen 127.0.0.1:9090 -recover /shared/ckpt
//
// and it replays the journal, resumes the job with identical
// lease/attempt state, and the runners reattach through their retry
// backoff — the merged report stays byte-identical to an
// uninterrupted run.
//
// Runners attach with: cinder-fleet -runner http://127.0.0.1:9090
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/delivery"
	"repro/internal/fleet"
	"repro/internal/units"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	if len(os.Args) < 2 {
		return fail(fmt.Errorf("usage: cinder-coord serve|submit|status|result [flags]"))
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "serve":
		err = runServe(os.Args[2:])
	case "submit":
		err = runSubmit(os.Args[2:])
	case "status":
		err = runStatus(os.Args[2:])
	case "result":
		err = runResult(os.Args[2:])
	default:
		err = fmt.Errorf("unknown command %q (want serve, submit, status or result)", cmd)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cinder-coord: "+format+"\n", args...)
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", "127.0.0.1:9090", "address to serve the coordinator API on")
		heartbeat   = fs.Duration("heartbeat", time.Second, "beat cadence handed to runners")
		lease       = fs.Duration("lease", 0, "lease length before a silent runner forfeits its shard (0 = 4× heartbeat)")
		maxAttempts = fs.Int("max-attempts", 3, "leases per shard before the job fails terminally")
		recoverDir  = fs.String("recover", "", "replay the coordinator journal in this checkpoint dir and resume serving its job")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := coord.Options{
		Heartbeat:   *heartbeat,
		Lease:       *lease,
		MaxAttempts: *maxAttempts,
		Logf:        logf,
	}
	var co *coord.Coordinator
	if *recoverDir != "" {
		var err error
		co, err = coord.Recover(opts, *recoverDir)
		if err != nil {
			return err
		}
	} else {
		co = coord.New(opts)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// The bound address on its own line: scripts passing -listen :0
	// read it to find the port.
	fmt.Printf("%s\n", ln.Addr())
	logf("serving on http://%s (runners: cinder-fleet -runner http://%s)", ln.Addr(), ln.Addr())
	go func() {
		<-co.Done()
		logf("job over; still serving status and result")
	}()
	return http.Serve(ln, delivery.Handler(co))
}

func runSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	var (
		coordURL  = fs.String("coord", "http://127.0.0.1:9090", "coordinator base URL")
		shards    = fs.Int("shards", 1, "shard plan: units of work runners can claim")
		wait      = fs.Bool("wait", false, "poll until the job ends and print the merged report")
		canonical = fs.Bool("canonical", false, "with -wait: fetch the canonical report (engine diagnostics zeroed)")
		outPath   = fs.String("o", "", "with -wait: write the report to this file instead of stdout")
		every     = fs.Duration("status-every", 2*time.Second, "with -wait: poll and progress-line interval")
	)
	build := fleet.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Without -wait, submit returns once the job is queued: a set flag
	// that only -wait reads is refused by name, not dropped.
	var ignored string
	fs.Visit(func(f *flag.Flag) {
		if ignored == "" && !*wait && (f.Name == "o" || f.Name == "canonical" || f.Name == "status-every") {
			ignored = f.Name
		}
	})
	if ignored != "" {
		return fmt.Errorf("submit without -wait returns once the job is queued; -%s needs -wait", ignored)
	}
	if *every <= 0 {
		return fmt.Errorf("-status-every must be positive, got %v", *every)
	}
	cfg, err := build()
	if err != nil {
		return err
	}
	job, err := fleet.NewJob(cfg, *shards)
	if err != nil {
		return err
	}
	ctx := context.Background()
	conn := delivery.DialHTTP(*coordURL)
	defer conn.Close()
	if err := delivery.Retry(ctx, delivery.Backoff{MaxAttempts: 5}, func(ctx context.Context) error {
		return conn.Submit(ctx, job)
	}); err != nil {
		return err
	}
	logf("submitted: %v", job)
	if !*wait {
		return nil
	}
	// The poll loop deliberately never gives up on a transport error: a
	// coordinator restarting under -recover looks exactly like a long
	// hiccup, and the submitted job survives it.
	for {
		time.Sleep(*every)
		st, err := conn.Status(ctx)
		if err != nil {
			logf("status poll failed (retrying): %v", err)
			continue
		}
		logf("%s", progressLine(st))
		if st.Failed != "" {
			return fmt.Errorf("job failed: %s", st.Failed)
		}
		if st.Done {
			break
		}
	}
	var b []byte
	if err := delivery.Retry(ctx, delivery.Backoff{}, func(ctx context.Context) error {
		var e error
		b, e = conn.Result(ctx, *canonical)
		return e
	}); err != nil {
		return err
	}
	return writeReport(*outPath, b)
}

// progressLine renders one human status line from a coordinator
// snapshot: completion, throughput in simulated device-days per wall
// second, ETA, and the resume floor.
func progressLine(st delivery.Status) string {
	if !st.Submitted {
		return "no job submitted yet"
	}
	line := fleet.ProgressText(units.Time(st.SimDoneMS), units.Time(st.SimTotalMS),
		time.Duration(st.ElapsedMS)*time.Millisecond)
	line += fmt.Sprintf("  %d/%d devices", st.DevicesDone, st.Devices)
	running, done := 0, 0
	lastCk := -1
	for _, s := range st.Shards {
		switch s.State {
		case "running":
			running++
		case "done":
			done++
		}
		if s.State == "running" && (lastCk < 0 || s.LastCheckpoint < lastCk) {
			lastCk = s.LastCheckpoint
		}
	}
	line += fmt.Sprintf("  shards %d done / %d running / %d total", done, running, len(st.Shards))
	if lastCk >= 0 {
		line += fmt.Sprintf("  last checkpoint %d", lastCk)
	}
	return line
}

func runStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	coordURL := fs.String("coord", "http://127.0.0.1:9090", "coordinator base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	conn := delivery.DialHTTP(*coordURL)
	defer conn.Close()
	st, err := conn.Status(context.Background())
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

// runResult fetches a finished job's merged report — the post-hoc
// companion to submit -wait, for when the submitter died or the report
// is wanted again (say, after a coordinator recovery).
func runResult(args []string) error {
	fs := flag.NewFlagSet("result", flag.ContinueOnError)
	var (
		coordURL  = fs.String("coord", "http://127.0.0.1:9090", "coordinator base URL")
		canonical = fs.Bool("canonical", false, "fetch the canonical report (engine diagnostics zeroed)")
		outPath   = fs.String("o", "", "write the report to this file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	conn := delivery.DialHTTP(*coordURL)
	defer conn.Close()
	b, err := conn.Result(context.Background(), *canonical)
	if err != nil {
		return err
	}
	return writeReport(*outPath, b)
}

// writeReport writes a report and its final newline to path, or to
// stdout when path is empty.
func writeReport(path string, b []byte) error {
	b = append(b, '\n')
	if path == "" {
		_, err := os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "cinder-coord:", err)
	return 1
}
