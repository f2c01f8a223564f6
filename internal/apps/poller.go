package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/netd"
	"repro/internal/sched"
	"repro/internal/units"
)

// PollerConfig describes a periodic background network application — the
// pop3 mail checker and RSS feed downloader of §6.4.
type PollerConfig struct {
	// Interval is the poll period (60 s in the paper's experiment).
	Interval units.Time
	// Phase delays the first poll (mail starts 15 s after RSS).
	Phase units.Time
	// Rate funds the poller's reserve ("enough energy to activate the
	// radio every two minutes" each, §6.4).
	Rate units.Power
	// ReqBytes/RespBytes size each exchange of a poll session.
	ReqBytes  int
	RespBytes int
	// Exchanges is the number of sequential round trips per poll (a
	// pop3 conversation is several); 0 means 1.
	Exchanges int
	// RespJitterPct varies each poll's response size by ±pct%,
	// modelling feeds and mailboxes whose payloads differ poll to poll.
	// The variation draws from the kernel's deterministic RNG.
	RespJitterPct int
}

// Poller is one periodic network application.
type Poller struct {
	Container *kobj.Container
	Reserve   *core.Reserve
	Tap       *core.Tap

	// Completed counts delivered polls; CompletedAt records their
	// times (the Fig. 13 activity marks).
	Completed   int
	CompletedAt []units.Time

	cfg  PollerConfig
	k    *kernel.Kernel
	next units.Time
}

// NewPoller spawns a poller that calls the netd gate every Interval.
// ownerPriv must be able to use src (battery). The poller's reserve
// allows debt so incoming bytes can be charged after the fact (§5.5.2).
func NewPoller(k *kernel.Kernel, parent *kobj.Container, name string, ownerPriv label.Priv, src *core.Reserve, cfg PollerConfig) (*Poller, error) {
	p := &Poller{cfg: cfg, k: k, next: cfg.Phase}
	p.Container = kobj.NewContainer(k.Table, parent, label.Public())
	p.Reserve = k.CreateReserveOpts(p.Container, name+"-reserve", label.Public(),
		core.ReserveOpts{AllowDebt: true})
	var err error
	p.Tap, err = k.CreateTap(p.Container, name+"-tap", ownerPriv, src, p.Reserve, label.Public())
	if err != nil {
		return nil, fmt.Errorf("apps: poller %q: %w", name, err)
	}
	if err := p.Tap.SetRate(ownerPriv, cfg.Rate); err != nil {
		return nil, fmt.Errorf("apps: poller %q: %w", name, err)
	}
	k.Sched.NewThread(p.Container, name, label.Public(), label.Priv{},
		sched.RunnerFunc(p.step), p.Reserve)
	return p, nil
}

// step runs each scheduled tick: sleep to the next poll instant, then
// issue a synchronous netd request (which blocks the thread until the
// response is delivered — possibly much later, if netd is pooling).
// The next poll is scheduled one interval after *completion*, so slow
// sessions drift the poller's phase exactly as real periodic daemons
// drift — the staggering visible in Fig. 13a.
func (p *Poller) step(now units.Time, th *sched.Thread) {
	if now < p.next {
		th.Sleep(p.next)
		return
	}
	p.next = now + p.cfg.Interval // provisional; completion moves it
	resp := p.cfg.RespBytes
	if j := p.cfg.RespJitterPct; j > 0 {
		span := int64(resp) * int64(j) / 100
		resp += int(p.k.Eng.Rand().Int63n(2*span+1) - span)
	}
	req := netd.Request{
		ReqBytes:  p.cfg.ReqBytes,
		RespBytes: resp,
		Exchanges: p.cfg.Exchanges,
		OnDone: func(at units.Time) {
			p.Completed++
			p.CompletedAt = append(p.CompletedAt, at)
			p.next = at + p.cfg.Interval
		},
	}
	if _, err := p.k.GateCall(netd.GateName, th, req); err != nil {
		// Gate unavailable: back off one interval rather than spin.
		th.Sleep(p.next)
	}
}
