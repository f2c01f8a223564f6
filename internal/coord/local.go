package coord

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/coord/delivery"
	"repro/internal/fleet"
)

// LocalOptions tunes RunHTTP.
type LocalOptions struct {
	// Runners is the number of concurrent runner loops (default 1).
	Runners int
	// Workers bounds each runner's simulation worker pool (0 = one per
	// CPU). With several runners on one machine, divide the CPUs.
	Workers int
	// Coordinator tunes the embedded coordinator (zero = defaults).
	Coordinator Options
	// Logf receives coordinator and runner event lines.
	Logf func(format string, args ...any)
}

// RunHTTP executes a job entirely in this process over a real HTTP
// loopback: an embedded coordinator behind delivery.Handler on a
// 127.0.0.1 listener, with opt.Runners runner loops dialing it through
// the wire like remote processes would. Every claim, heartbeat, partial
// and status crosses a TCP connection and the full JSON encode/decode
// path, so this function is a faithful rehearsal of a cluster run
// (cinder-coord serve, cinder-fleet -runner, cinder-coord submit) in
// one process: the perfharness cluster scenario and the coord tests
// run it. A one-runner RunHTTP of a one-shard job is the degenerate
// case whose report is byte-identical to a plain fleet.Run (asserted
// in tests).
func RunHTTP(ctx context.Context, job fleet.Job, opt LocalOptions) (fleet.Report, error) {
	runners := opt.Runners
	if runners <= 0 {
		runners = 1
	}
	co := New(opt.Coordinator)
	if opt.Logf != nil && co.opts.Logf == nil {
		co.opts.Logf = opt.Logf
	}
	defer co.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fleet.Report{}, fmt.Errorf("coord: loopback listener: %w", err)
	}
	srv := &http.Server{Handler: delivery.Handler(co)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		<-serveErr // http.ErrServerClosed once Shutdown finishes
	}()

	base := "http://" + ln.Addr().String()
	submit := delivery.DialHTTP(base)
	defer submit.Close()
	if err := submit.Submit(ctx, job); err != nil {
		return fleet.Report{}, err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < runners; i++ {
		conn := delivery.DialHTTP(base)
		r := &Runner{
			ID:      fmt.Sprintf("http-%d", i),
			Conn:    conn,
			Workers: opt.Workers,
			Poll:    20 * time.Millisecond,
			Logf:    opt.Logf,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			r.Run(ctx)
		}()
	}
	rep, err := co.Wait(ctx)
	cancel()
	wg.Wait()
	return rep, err
}
