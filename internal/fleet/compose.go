package fleet

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/msm"
	"repro/internal/netd"
	"repro/internal/netquota"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/units"
)

// This file implements the composable scenario subsystem: instead of a
// fleet of single-behaviour clones, a device's virtual day is assembled
// from phased sub-workloads — screen sessions, voice calls and SMS over
// the ARM9 path, bursty browsing through the radio, background pollers
// against cooperative netd — the same build-rich-behaviour-from-fixed-
// blocks discipline the paper's evaluation (§6) applies to a real phone
// day.
//
// Lifecycle discipline matters here: every workload that installs taps
// or threads tears them down at the end of its window by deleting its
// phase container. Teardown returns unused energy to the battery and —
// with the tap-lifecycle fixes in internal/core — drops the orphaned
// taps out of the graph's active set, so the kernel re-enters its
// quiescent fast path between phases. A day that is mostly idle
// simulates in a tiny fraction of its ticks.

// Window is a time interval within a device's simulated day.
type Window struct {
	Start, Duration units.Time
}

// End returns the instant the window closes.
func (w Window) End() units.Time { return w.Start + w.Duration }

// Workload is a sub-behaviour installable over a window of a device's
// day. Install runs at fleet construction time (before the simulation
// starts) and schedules the workload's setup and teardown on the
// device's engine; any per-device randomness must be drawn from
// d.Rand at install time so the engine's run-time stream is untouched.
type Workload interface {
	Name() string
	Install(d *Device, w Window) error
}

// Phase schedules one workload over one window of the day.
type Phase struct {
	Workload Workload
	// Start is the phase's offset into the day; Duration its length.
	Start    units.Time
	Duration units.Time
	// Jitter shifts the start by a per-device amount drawn uniformly
	// from [0, Jitter) out of the device's construction stream, so a
	// fleet does not run its phase transitions in lockstep.
	Jitter units.Time
}

// Compose is a Scenario assembled from phases. Phases may overlap; each
// workload manages its own objects, but overlapping Screen phases share
// the single backlight (last toggle wins).
type Compose struct {
	// Label names the composed day (the report bucket for this device).
	Label  string
	Phases []Phase
}

// Name implements Scenario.
func (c Compose) Name() string { return c.Label }

// Build implements Scenario: it installs every phase onto the device.
func (c Compose) Build(d *Device) error {
	for i, ph := range c.Phases {
		if ph.Workload == nil {
			return fmt.Errorf("fleet: compose %q: phase %d has no workload", c.Label, i)
		}
		w := Window{Start: ph.Start, Duration: ph.Duration}
		if ph.Jitter > 0 {
			w.Start += units.Time(d.Rand.Intn(int64(ph.Jitter)))
		}
		if err := ph.Workload.Install(d, w); err != nil {
			return fmt.Errorf("fleet: compose %q: phase %d (%s): %w",
				c.Label, i, ph.Workload.Name(), err)
		}
	}
	return nil
}

// Screen models a backlight session: the §4.2 power model's +555 mW
// while the screen is lit, nothing else. It needs no taps or threads,
// so a day of screen sessions still rides the quiescent fast path.
type Screen struct{}

// Name implements Workload.
func (Screen) Name() string { return "screen" }

// Install implements Workload.
func (Screen) Install(d *Device, w Window) error {
	if w.Duration <= 0 {
		return nil
	}
	k := d.Kernel
	k.Eng.At(w.Start, func(*sim.Engine) { k.SetBacklight(true) })
	k.Eng.At(w.End(), func(*sim.Engine) { k.SetBacklight(false) })
	return nil
}

// Call places one voice call through the ARM9 baseband: the dialer app
// checks the battery over the smd.battery gate, dials, holds the call
// for CallTime (billed at the modem's call draw to the dialer's
// reserve), and hangs up. The dialer's process tree is torn down at the
// window's end.
type Call struct {
	// CallTime is how long the call stays active before hangup
	// (default 2 min). The window must leave ≥ 30 s of headroom over
	// CallTime for call setup and teardown.
	CallTime units.Time
	// Rate funds the dialer's reserve (default 1 W: the synthetic
	// 800 mW call draw plus CPU headroom).
	Rate units.Power
	// MinBatteryPct refuses the call below this battery reading.
	MinBatteryPct int64
}

// Name implements Workload.
func (Call) Name() string { return "call" }

// Install implements Workload.
func (c Call) Install(d *Device, w Window) error {
	if _, err := d.EnsureSmdd(); err != nil {
		return err
	}
	callTime := c.CallTime
	if callTime == 0 {
		callTime = 2 * units.Minute
	}
	rate := c.Rate
	if rate == 0 {
		rate = units.Watts(1)
	}
	if w.Duration < callTime+30*units.Second {
		return fmt.Errorf("fleet: call window %v leaves no headroom over call time %v",
			w.Duration, callTime)
	}
	k := d.Kernel
	var dl *apps.Dialer
	k.Eng.At(w.Start, func(*sim.Engine) {
		var err error
		dl, err = apps.NewDialer(k, k.Root, k.KernelPriv(), k.Battery(), apps.DialerConfig{
			Number:        "555-0100",
			Duration:      callTime,
			Rate:          rate,
			MinBatteryPct: c.MinBatteryPct,
		})
		if err != nil {
			dl = nil // gate vanished (device dying); skip the call
		}
	})
	k.Eng.At(w.End(), func(*sim.Engine) {
		if dl == nil {
			return
		}
		// Defensive: if the window closed while *this phase's* call was
		// still up (a dying device can stall the dialer), hang up at
		// the baseband before deleting the dialer so the modem does not
		// draw call power forever. A dialer that already finished
		// (hung up, or refused/busy) leaves the baseband alone — an
		// overlapping Call phase may own the current call.
		if !dl.Done() && d.Smdd.ARM9().CallStateNow() != msm.CallIdle {
			d.Smdd.ARM9().Request(msm.Message{Kind: msm.ReqHangup})
		}
		_ = k.Table.Delete(dl.Container.ObjectID())
		dl = nil
	})
	return nil
}

// SMSBurst sends Count text messages Interval apart through the
// smd.sms.send gate. Each message is admitted all-or-nothing against
// the sender's reserve (2 J per message, §3.2 semantics); the sender's
// budget is pre-funded at install and whatever remains returns to the
// battery at teardown.
type SMSBurst struct {
	// Count is the number of messages (default 3).
	Count int
	// Interval separates sends (default 30 s).
	Interval units.Time
}

// Name implements Workload.
func (SMSBurst) Name() string { return "sms" }

// Install implements Workload.
func (s SMSBurst) Install(d *Device, w Window) error {
	if _, err := d.EnsureSmdd(); err != nil {
		return err
	}
	count := s.Count
	if count <= 0 {
		count = 3
	}
	interval := s.Interval
	if interval == 0 {
		interval = 30 * units.Second
	}
	k := d.Kernel
	budget := units.Energy(count)*msm.DefaultSmddConfig().SMSEnergy + units.Joule
	var ctr *kobj.Container
	k.Eng.At(w.Start, func(*sim.Engine) {
		c := kobj.NewContainer(k.Table, k.Root, label.Public())
		res := k.CreateReserve(c, "sms-reserve", label.Public())
		if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), res, budget); err != nil {
			// Battery cannot fund the burst (device dying): drop the
			// phase.
			_ = k.Table.Delete(c.ObjectID())
			return
		}
		sender := &smsSender{k: k, count: count, interval: interval}
		k.Sched.NewThread(c, "sms-sender", label.Public(), label.Priv{},
			sched.RunnerFunc(sender.step), res)
		ctr = c
	})
	k.Eng.At(w.End(), func(*sim.Engine) {
		if ctr != nil {
			_ = k.Table.Delete(ctr.ObjectID())
			ctr = nil
		}
	})
	return nil
}

// smsSender drives an SMSBurst: send, wait for the baseband's
// confirmation (the gate blocks the thread), pause, repeat.
type smsSender struct {
	k        *kernel.Kernel
	sent     int
	count    int
	interval units.Time
	next     units.Time
}

func (s *smsSender) step(now units.Time, th *sched.Thread) {
	if now < s.next {
		th.Sleep(s.next)
		return
	}
	if s.sent >= s.count {
		th.Exit()
		return
	}
	s.sent++
	s.next = now + s.interval
	if _, err := s.k.GateCall(msm.GateSMS, th, msm.SMSRequest{Body: "ok"}); err != nil {
		// Unaffordable or gate gone: skip this message, try the next
		// on schedule.
		th.Sleep(s.next)
	}
}

// Browse models a foreground browsing burst: Pages sequential page
// loads through the cooperative netd gate, each a short request and a
// payload-sized response over the radio, separated by per-device think
// times drawn from the construction stream. The session's process tree
// (reserve, funding tap, thread) is torn down at the window's end.
type Browse struct {
	// Pages is the number of page loads attempted (default 10).
	Pages int
	// PageBytes sizes each page download (default 96 KiB).
	PageBytes int
	// ReqBytes sizes each page request (default 500 B).
	ReqBytes int
	// ThinkMin/ThinkMax bound the uniform per-page think time
	// (defaults 5 s / 25 s).
	ThinkMin, ThinkMax units.Time
	// Rate funds the session's reserve (default 300 mW).
	Rate units.Power
	// Allowance, when non-nil, meters the session against a data plan:
	// each page charges ReqBytes+PageBytes all-or-nothing before
	// touching the network and is skipped (thought over, not retried)
	// when the plan refuses — the netquota subsystem as a workload
	// participant rather than a unit-test fixture. A refused page still
	// consumes its think time, so an exhausted plan shows up as a lower
	// Pages count, not a hot retry loop.
	Allowance *netquota.Allowance
}

// Name implements Workload.
func (Browse) Name() string { return "browse" }

// Install implements Workload.
func (b Browse) Install(d *Device, w Window) error {
	pages := b.Pages
	if pages <= 0 {
		pages = 10
	}
	pageBytes := b.PageBytes
	if pageBytes == 0 {
		pageBytes = 96 << 10
	}
	reqBytes := b.ReqBytes
	if reqBytes == 0 {
		reqBytes = 500
	}
	thinkMin, thinkMax := b.ThinkMin, b.ThinkMax
	if thinkMin == 0 {
		thinkMin = 5 * units.Second
	}
	if thinkMax <= thinkMin {
		thinkMax = thinkMin + 20*units.Second
	}
	rate := b.Rate
	if rate == 0 {
		rate = units.Milliwatts(300)
	}
	// Think times come from the construction stream, at install time.
	thinks := make([]units.Time, pages)
	for i := range thinks {
		thinks[i] = thinkMin + units.Time(d.Rand.Intn(int64(thinkMax-thinkMin)))
	}

	k := d.Kernel
	br := &browser{k: k, pageBytes: pageBytes, reqBytes: reqBytes, thinks: thinks, allow: b.Allowance}
	var ctr *kobj.Container
	k.Eng.At(w.Start, func(*sim.Engine) {
		c := kobj.NewContainer(k.Table, k.Root, label.Public())
		res := k.CreateReserveOpts(c, "browse-reserve", label.Public(),
			core.ReserveOpts{AllowDebt: true})
		tap, err := k.CreateTap(c, "browse-tap", k.KernelPriv(), k.Battery(), res, label.Public())
		if err != nil {
			_ = k.Table.Delete(c.ObjectID())
			return
		}
		if err := tap.SetRate(k.KernelPriv(), rate); err != nil {
			_ = k.Table.Delete(c.ObjectID())
			return
		}
		k.Sched.NewThread(c, "browser", label.Public(), label.Priv{},
			sched.RunnerFunc(br.step), res)
		ctr = c
	})
	k.Eng.At(w.End(), func(*sim.Engine) {
		if ctr != nil {
			_ = k.Table.Delete(ctr.ObjectID())
			ctr = nil
		}
	})
	d.Probes = append(d.Probes, func(res *DeviceResult) {
		res.Pages += int64(br.loaded)
	})
	// The loaded-page count lives only in this install's closure; carry
	// it across checkpoints so a resumed device reports the same Pages
	// total an uninterrupted run would.
	d.Hooks = append(d.Hooks, func(c *snap.Codec) {
		c.Section("browse")
		snap.Int(c, &br.loaded)
	})
	return nil
}

// browser drives a Browse burst page by page.
type browser struct {
	k         *kernel.Kernel
	pageBytes int
	reqBytes  int
	thinks    []units.Time
	allow     *netquota.Allowance
	page      int
	loaded    int
	next      units.Time
}

func (b *browser) step(now units.Time, th *sched.Thread) {
	if now < b.next {
		th.Sleep(b.next)
		return
	}
	if b.page >= len(b.thinks) {
		th.Exit()
		return
	}
	think := b.thinks[b.page]
	b.page++
	if b.allow != nil {
		if err := b.allow.Charge(label.Priv{}, netquota.Bytes(b.reqBytes+b.pageBytes)); err != nil {
			// Plan exhausted: skip the page and think about it.
			b.next = now + think
			th.Sleep(b.next)
			return
		}
	}
	req := netd.Request{
		ReqBytes:  b.reqBytes,
		RespBytes: b.pageBytes,
		Exchanges: 3, // DNS + TCP-ish handshake + payload, coarsely
		OnDone: func(at units.Time) {
			b.loaded++
			b.next = at + think
		},
	}
	b.next = now + think // provisional; completion moves it
	if _, err := b.k.GateCall(netd.GateName, th, req); err != nil {
		th.Sleep(b.next)
	}
}

// Pollers runs the §6.4 background pair (RSS + mail style periodic
// network applications) over a window, with per-device phase jitter
// from the construction stream. Outside the window the pollers' taps
// and threads are gone and the device can quiesce.
type Pollers struct {
	// Pollers is the number of periodic applications (default 2).
	Pollers int
	// Interval is the poll period (default 60 s; day-scale mixes use
	// coarser periods).
	Interval units.Time
}

// Name implements Workload.
func (Pollers) Name() string { return "pollers" }

// Install implements Workload.
func (p Pollers) Install(d *Device, w Window) error {
	n := p.Pollers
	if n <= 0 {
		n = pollerCount
	}
	interval := p.Interval
	if interval == 0 {
		interval = pollerInterval
	}
	phases := make([]units.Time, n)
	for i := range phases {
		phases[i] = units.Time(d.Rand.Intn(int64(interval)))
	}

	k := d.Kernel
	pollers := make([]*apps.Poller, 0, n)
	var ctr *kobj.Container
	k.Eng.At(w.Start, func(e *sim.Engine) {
		c := kobj.NewContainer(k.Table, k.Root, label.Public())
		for i := 0; i < n; i++ {
			pl, err := apps.NewPoller(k, c, fmt.Sprintf("poller-%d", i),
				k.KernelPriv(), k.Battery(), apps.PollerConfig{
					Interval:      interval,
					Phase:         e.Now() + phases[i],
					Rate:          pollerRate,
					ReqBytes:      pollerReqBytes,
					RespBytes:     pollerRespBytes,
					RespJitterPct: pollerRespJitterPct,
				})
			if err != nil {
				_ = k.Table.Delete(c.ObjectID())
				return
			}
			pollers = append(pollers, pl)
		}
		ctr = c
	})
	k.Eng.At(w.End(), func(*sim.Engine) {
		if ctr != nil {
			_ = k.Table.Delete(ctr.ObjectID())
			ctr = nil
		}
	})
	// carried holds polls completed before the most recent checkpoint:
	// the poller objects themselves live in this install's closure and a
	// resumed device rebuilds the phase with fresh, zeroed pollers.
	var carried int64
	d.Probes = append(d.Probes, func(res *DeviceResult) {
		res.Polls += carried
		for _, pl := range pollers {
			res.Polls += int64(pl.Completed)
		}
	})
	d.Hooks = append(d.Hooks, func(c *snap.Codec) {
		c.Section("pollers")
		total := carried
		for _, pl := range pollers {
			total += int64(pl.Completed)
		}
		snap.Int(c, &total)
		if c.Loading() {
			carried = total
		}
	})
	return nil
}

// MixEntry is one weighted slot of a Mix.
type MixEntry struct {
	// Weight is the entry's relative share of the fleet population.
	Weight int
	// Scenario is the workload devices in this slot receive.
	Scenario Scenario
}

// Mix assigns a weighted scenario mix across the fleet from the device
// construction stream: each device draws its bucket from its own
// deterministic Rand, so the assignment — and therefore the whole
// report — is identical regardless of worker count, while a 1000-device
// fleet models a heterogeneous population rather than 1000 clones.
type Mix struct {
	// Label names the mix (the report's top-level scenario name).
	Label   string
	Entries []MixEntry
}

// Name implements Scenario.
func (m Mix) Name() string { return m.Label }

// Build implements Scenario: it draws the device's bucket and builds
// the chosen entry, recording the entry's name as the device's report
// bucket.
func (m Mix) Build(d *Device) error {
	total := int64(0)
	for i, e := range m.Entries {
		if e.Weight < 0 || e.Scenario == nil {
			return fmt.Errorf("fleet: mix %q: bad entry %d", m.Label, i)
		}
		total += int64(e.Weight)
	}
	if total == 0 {
		return fmt.Errorf("fleet: mix %q has no weight", m.Label)
	}
	pick := d.Rand.Intn(total)
	for _, e := range m.Entries {
		pick -= int64(e.Weight)
		if pick < 0 {
			d.Scenario = e.Scenario.Name()
			return e.Scenario.Build(d)
		}
	}
	panic("fleet: mix selection out of range") // unreachable
}
