// Package radio simulates the HTC Dream's cellular data path as the
// Cinder paper characterizes it (§4.3): a closed ARM9-managed radio with
// an exceptionally high activation cost (≈9.5 J to send a single byte
// from sleep), a fixed 20 s inactivity timeout that the application
// processor cannot change, and comparatively cheap marginal bytes once
// the radio is active.
//
// The model is a three-state machine:
//
//	Sleep --send--> Ramp --(RampTime)--> Active --(20 s idle)--> Sleep
//
// Ramp draws RadioRampExtra above baseline, Active draws
// RadioActiveExtra; with the Dream profile the ramp and one full idle
// timeout sum to the published 9.5 J activation overhead. Every packet
// restarts the idle timer, reproducing the cost asymmetry the paper
// describes: "back-to-back actions are cheaper than ones with more
// delay between them".
//
// Power is billed each tick to the radio's funding reserve — the pool
// netd pre-pays into — falling back to the battery when unfunded (the
// "energy-unrestricted network stack" baseline of §6.4).
package radio

import (
	"repro/internal/core"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// State is the radio power state.
type State uint8

const (
	// Sleep is the lowest power state; transmission requires a ramp.
	Sleep State = iota
	// Ramp is the transition from sleep to active.
	Ramp
	// Active is the transmitting/awaiting-timeout plateau.
	Active
)

// Stats accumulates radio activity counters.
type Stats struct {
	// Activations counts sleep→ramp transitions.
	Activations int64
	// StateEnergy is the total above-baseline energy drawn by ramp and
	// plateau states.
	StateEnergy units.Energy
	// DataEnergy is the total marginal per-packet/per-byte energy.
	DataEnergy units.Energy
	// ActiveTime is the cumulative time spent in Ramp or Active.
	ActiveTime units.Time
}

// Config parameterizes a Radio.
type Config struct {
	// Profile supplies the power model; required.
	Profile power.Profile
	// Jitter enables the per-activation plateau variation the paper
	// observed (8.8–11.9 J, "outliers ... occur unpredictably", Fig. 4).
	// Off, every activation costs exactly the published mean.
	Jitter bool
	// RTT is the network round-trip latency for Exchange; defaults to
	// 200 ms.
	RTT units.Time
	// Trace records every state transition (StateSeries) and makes the
	// netd driving this radio sample its pool (netd.PoolTrace). Only
	// the experiments that read those histories set it (Fig. 4, and
	// Table 1 with Figs. 13/14); off, neither series exists and a
	// checkpoint carries neither.
	Trace bool
}

// Radio is the simulated data path device.
type Radio struct {
	eng     *sim.Engine
	graph   *core.Graph
	profile power.Profile
	jitter  bool
	rtt     units.Time

	state        State
	rampEnd      units.Time
	lastActivity units.Time
	// plateauScale adjusts the active draw for the current activation
	// (jitter), in parts per 1024.
	plateauScale int64
	carry        int64

	// fund is the reserve radio draw is billed to first; netd pre-pays
	// activation cost into it. Falls back to the battery.
	fund  *core.Reserve
	priv  label.Priv
	stats Stats
	// states records transitions for Fig. 4's episodes and Table 1's
	// active time; nil unless Config.Trace.
	states *trace.Series
	// episodeStart snapshots cumulative above-baseline energy at
	// wakeup so each completed episode's overhead can be reported.
	episodeStart units.Energy
	onEpisode    func(cost units.Energy)
	// onActivity, when set, is invoked when the radio leaves Sleep. The
	// kernel hooks it to resume a deferred device-tick task.
	onActivity func()
}

// New creates a radio whose funding reserve lives under parent. priv
// must be able to use the battery (the radio is a kernel-side device).
func New(eng *sim.Engine, g *core.Graph, parent *kobj.Container, priv label.Priv, cfg Config) *Radio {
	r := &Radio{}
	r.Reset(eng, g, parent, priv, cfg)
	return r
}

// Reset reinitializes the radio in place to the exact state New would
// produce — a fresh funding reserve in the given (typically recycled)
// graph, the state machine asleep, all counters zero. A traced radio
// reuses its state series' backing array; an untraced one drops it.
// The fleet runner recycles one untraced radio per worker this way.
func (r *Radio) Reset(eng *sim.Engine, g *core.Graph, parent *kobj.Container, priv label.Priv, cfg Config) {
	if cfg.RTT == 0 {
		cfg.RTT = 200 * units.Millisecond
	}
	r.eng = eng
	r.graph = g
	r.profile = cfg.Profile
	r.jitter = cfg.Jitter
	r.rtt = cfg.RTT
	r.state = Sleep
	r.rampEnd = 0
	r.lastActivity = 0
	r.plateauScale = 1024
	r.carry = 0
	r.priv = priv
	r.stats = Stats{}
	r.episodeStart = 0
	r.onEpisode = nil
	r.onActivity = nil
	r.fund = g.NewReserve(parent, "radio-fund", label.Public(), core.ReserveOpts{DecayExempt: true})
	switch {
	case !cfg.Trace:
		r.states = nil
		return
	case r.states == nil:
		r.states = trace.NewSeries("radio-state", "state")
	default:
		r.states.Reset("radio-state", "state")
	}
	r.states.Add(eng.Now(), int64(Sleep))
}

// FundingReserve returns the reserve radio power is billed against.
// netd transfers the pooled activation energy here when it powers the
// radio up (§5.5.2: "the reserve ... is debited, the radio is turned
// on").
func (r *Radio) FundingReserve() *core.Reserve { return r.fund }

// Profile returns the radio's power model.
func (r *Radio) Profile() power.Profile { return r.profile }

// State returns the current power state.
func (r *Radio) State() State { return r.state }

// Stats returns a copy of the activity counters.
func (r *Radio) Stats() Stats { return r.stats }

// StateSeries returns the state transition series, or nil when the
// radio is untraced.
func (r *Radio) StateSeries() *trace.Series { return r.states }

// Traced reports whether the radio was built with Config.Trace.
func (r *Radio) Traced() bool { return r.states != nil }

// ActivationCost returns the energy a power-up from the current state
// will add above baseline, the estimate netd uses (§5.5.2): a sleeping
// radio costs the full ramp + plateau; an active radio only the
// extension of the idle window.
func (r *Radio) ActivationCost(now units.Time) units.Energy {
	switch r.state {
	case Sleep:
		return r.profile.RadioActivationEnergy
	default:
		// Sending now moves the idle deadline from lastActivity+T to
		// now+T: the marginal cost is the elapsed idle gap at plateau
		// power (§5.5: "transmitting now will extend the active period
		// by an additional 15 seconds").
		gap := now - r.lastActivity
		if gap < 0 {
			gap = 0
		}
		return r.profile.RadioActiveExtra.Over(gap)
	}
}

// transition records a state change.
func (r *Radio) transition(now units.Time, s State) {
	if r.state == s {
		return
	}
	r.state = s
	if r.states != nil {
		r.states.Add(now, int64(s))
	}
}

// Quiescent reports whether the radio needs no per-tick servicing: a
// sleeping radio draws nothing above baseline and changes state only
// through Send/Deliver, which fire the activity hook.
func (r *Radio) Quiescent() bool { return r.state == Sleep }

// SetActivityHook installs fn to be called when the radio wakes from
// Sleep. Pass nil to remove.
func (r *Radio) SetActivityHook(fn func()) { r.onActivity = fn }

// OnEpisode registers a callback invoked at each active→sleep
// transition with the episode's above-baseline state energy. The
// adaptive model estimator (§4.4) hooks this to refine activation-cost
// predictions from "past component usage".
func (r *Radio) OnEpisode(fn func(cost units.Energy)) { r.onEpisode = fn }

// wakeup begins a ramp if the radio sleeps. Returns the time
// transmission can begin.
func (r *Radio) wakeup(now units.Time) units.Time {
	switch r.state {
	case Sleep:
		if r.onActivity != nil {
			r.onActivity()
		}
		r.stats.Activations++
		r.episodeStart = r.stats.StateEnergy
		r.plateauScale = 1024
		if r.jitter {
			// Scale the plateau within roughly ±8 %, with an occasional
			// high outlier, reproducing the 8.8–11.9 J spread.
			n := r.eng.Rand().Intn(100)
			switch {
			case n < 10: // outlier
				r.plateauScale = 1024 + int64(r.eng.Rand().Intn(350))
			default:
				r.plateauScale = 1024 - 82 + int64(r.eng.Rand().Intn(164))
			}
		}
		r.transition(now, Ramp)
		r.rampEnd = now + r.profile.RadioRampTime
		r.lastActivity = r.rampEnd
		return r.rampEnd
	case Ramp:
		return r.rampEnd
	default:
		return now
	}
}

// Send transmits a packet of sizeBytes, waking the radio if necessary.
// The marginal data cost is debited from bill (into debt if permitted)
// using priv; a nil bill charges the funding reserve/battery. It
// returns the time the packet leaves the device.
func (r *Radio) Send(now units.Time, sizeBytes int, bill *core.Reserve, priv label.Priv) units.Time {
	var txAt units.Time
	switch r.state {
	case Sleep:
		txAt = r.wakeup(now)
	case Ramp:
		txAt = r.rampEnd
	default:
		txAt = now
	}
	if txAt < now {
		txAt = now
	}
	r.lastActivity = txAt
	r.billData(r.profile.PacketEnergy(sizeBytes), bill, priv)
	return txAt + r.profile.TransferTime(int64(sizeBytes))
}

// Deliver accounts for an incoming packet: it refreshes the idle timer
// and bills the receive cost after the fact (§5.5.2: receivers "debit
// their own reserves up to or into debt ... after-the-fact").
func (r *Radio) Deliver(now units.Time, sizeBytes int, bill *core.Reserve, priv label.Priv) {
	if r.state == Sleep {
		// Network-initiated wakeup (paging); rare in the experiments but
		// required for inbound-only traffic.
		r.wakeup(now)
	}
	if now > r.lastActivity {
		r.lastActivity = now
	}
	r.billData(r.profile.PacketEnergy(sizeBytes), bill, priv)
}

// Exchange performs a request/response round trip (the UDP echo pattern
// of Fig. 3): a send of reqBytes now and a delivery of respBytes after
// the RTT plus transfer times. onDone, if non-nil, runs at delivery.
func (r *Radio) Exchange(now units.Time, reqBytes, respBytes int, bill *core.Reserve, priv label.Priv, onDone func(at units.Time)) {
	sent := r.Send(now, reqBytes, bill, priv)
	arrive := sent + r.rtt + r.profile.TransferTime(int64(respBytes))
	r.eng.At(arrive, func(e *sim.Engine) {
		r.Deliver(e.Now(), respBytes, bill, priv)
		if onDone != nil {
			onDone(e.Now())
		}
	})
}

// billData charges marginal data-path energy: to bill (allowing debt)
// when given, otherwise to the funding reserve or battery.
func (r *Radio) billData(e units.Energy, bill *core.Reserve, priv label.Priv) {
	r.stats.DataEnergy += e
	if bill != nil {
		if err := bill.DebitSelf(priv, e); err == nil {
			return
		}
		if err := bill.Consume(priv, e); err == nil {
			return
		}
	}
	r.consumeDevice(e)
}

// consumeDevice draws device energy from the funding reserve, falling
// back to the battery for any shortfall.
func (r *Radio) consumeDevice(e units.Energy) {
	if e <= 0 {
		return
	}
	if r.fund.CanConsume(r.priv, e) {
		if r.fund.Consume(r.priv, e) == nil {
			return
		}
	}
	// Partial: drain the fund, then the battery.
	if lvl, err := r.fund.Level(r.priv); err == nil && lvl > 0 {
		if r.fund.Consume(r.priv, lvl) == nil {
			e -= lvl
		}
	}
	_ = r.graph.Battery().Consume(r.priv, e)
}

// DeviceTick advances the state machine and bills state power; the
// kernel calls it every tick.
func (r *Radio) DeviceTick(now units.Time, dt units.Time) {
	var extra units.Power
	switch r.state {
	case Sleep:
		r.carry = 0
		return
	case Ramp:
		extra = r.profile.RadioRampExtra
		if now >= r.rampEnd {
			r.transition(now, Active)
		}
	case Active:
		extra = units.Power(int64(r.profile.RadioActiveExtra) * r.plateauScale / 1024)
		if now >= r.lastActivity+r.profile.RadioIdleTimeout {
			r.transition(now, Sleep)
			// Drop the sub-µJ billing residue immediately: the sleep
			// branch zeroed it on the next tick anyway, and the kernel
			// may never tick a sleeping radio again.
			r.carry = 0
			// Return any unused pre-paid activation energy to the
			// battery so cost estimates stay honest across activations.
			_, _ = r.graph.TransferUpTo(r.priv, r.fund, r.graph.Battery(), units.MaxEnergy)
			if r.onEpisode != nil {
				r.onEpisode(r.stats.StateEnergy - r.episodeStart)
			}
			return
		}
	}
	var e units.Energy
	e, r.carry = extra.OverRem(dt, r.carry)
	if e > 0 {
		r.consumeDevice(e)
		r.stats.StateEnergy += e
	}
	r.stats.ActiveTime += dt
}

// PeakDraw bounds the radio's possible per-tick draw above baseline: the
// ramp power or the jittered plateau (plateauScale ≤ 1374/1024 < 2). The
// kernel budgets this against the battery's depletion horizon before
// settling skipped device ticks in closed form.
func (r *Radio) PeakDraw() units.Power {
	p := r.profile.RadioRampExtra
	if a := 2 * r.profile.RadioActiveExtra; a > p {
		p = a
	}
	return p
}

// SettleSafe implements kernel.SettleableDevice: closed-form
// settlement reorders device billing against tap flows, which is only
// exact while no active tap touches the funding reserve.
func (r *Radio) SettleSafe() bool { return !r.graph.ReserveTapped(r.fund) }

// SettleTicks performs, in closed form, exactly the DeviceTick calls the
// kernel skipped while its device task was parked: one per tick instant
// from `from` through `to` inclusive. Between external inputs (Send,
// Deliver — which only happen at executed engine instants, after
// settlement has caught up) the state machine is fully determined:
// ramp until the first tick at/after rampEnd (which bills ramp power and
// flips to Active, as the per-tick code does), a plateau until the first
// tick at/after the idle deadline (which bills nothing, sweeps the fund
// and sleeps), then nothing. Each constant-power span telescopes its
// carry exactly; one the fund cannot cover splits in closed form, the
// fund paying its whole level and the battery the rest (settleSpan).
func (r *Radio) SettleTicks(from, to, dt units.Time) {
	for t := from; t <= to; {
		switch r.state {
		case Sleep:
			// Every remaining tick is the per-tick Sleep no-op.
			r.carry = 0
			return
		case Ramp:
			end := to
			flips := false
			if r.rampEnd <= end {
				// First tick at/after rampEnd: bills ramp, then flips.
				if e := gridCeil(r.rampEnd, t, dt); e <= end {
					end, flips = e, true
				}
			}
			r.settleSpan((int64(end-t)/int64(dt))+1, dt, r.profile.RadioRampExtra)
			if flips {
				r.transition(end, Active)
			}
			t = end + dt
		case Active:
			deadline := r.lastActivity + r.profile.RadioIdleTimeout
			extra := units.Power(int64(r.profile.RadioActiveExtra) * r.plateauScale / 1024)
			sleepAt := gridCeil(deadline, t, dt)
			if sleepAt > to {
				r.settleSpan((int64(to-t)/int64(dt))+1, dt, extra)
				return
			}
			if sleepAt-dt >= t {
				r.settleSpan((int64(sleepAt-dt-t)/int64(dt))+1, dt, extra)
			}
			// The deadline tick: transition only — no billing, no active
			// time (the per-tick code returns before both).
			r.transition(sleepAt, Sleep)
			r.carry = 0
			_, _ = r.graph.TransferUpTo(r.priv, r.fund, r.graph.Battery(), units.MaxEnergy)
			if r.onEpisode != nil {
				r.onEpisode(r.stats.StateEnergy - r.episodeStart)
			}
			t = sleepAt + dt
		}
	}
}

// settleSpan bills n ticks of constant extra power exactly as n
// DeviceTick calls would. Tick j's cumulative draw is ⌊(x·j+c₀)/1000⌋
// (x = power·dt, c₀ = the carry), so the per-tick run drains the fund
// as a prefix: every tick the fund covers bills it, the first tick it
// cannot cover drains its remainder and sends the shortfall to the
// battery, and every later tick bills the battery alone. Whatever tick
// the crossing falls on, the fund pays exactly its level and the battery
// the rest, so the span settles as at most two debits.
func (r *Radio) settleSpan(n int64, dt units.Time, extra units.Power) {
	if n <= 0 {
		return
	}
	total := int64(extra)*int64(dt)*n + r.carry
	e := units.Energy(total / 1000)
	if e > 0 && !r.fund.CanConsume(r.priv, e) {
		fund, err := r.fund.Level(r.priv)
		if err != nil || !r.fund.CanConsume(r.priv, fund) {
			fund = 0 // dead or closed to the radio: consumeDevice skips it
		}
		battery := r.graph.Battery()
		if !battery.CanConsume(r.priv, e-fund) {
			// Closed-form settlement only runs while the battery's
			// depletion horizon covers the radio's PeakDraw, so
			// production never reaches this: a battery that cannot pay
			// the remainder replays tick by tick, failing each
			// Consume it cannot cover as a per-tick run would.
			for i := int64(0); i < n; i++ {
				var ei units.Energy
				ei, r.carry = extra.OverRem(dt, r.carry)
				if ei > 0 {
					r.consumeDevice(ei)
					r.stats.StateEnergy += ei
				}
				r.stats.ActiveTime += dt
			}
			return
		}
		if fund > 0 {
			_ = r.fund.Consume(r.priv, fund)
		}
		_ = battery.Consume(r.priv, e-fund)
	} else if e > 0 {
		_ = r.fund.Consume(r.priv, e)
	}
	r.carry = total % 1000
	r.stats.StateEnergy += e
	r.stats.ActiveTime += units.Time(n) * dt
}

// gridCeil returns the first tick instant at or after x on the grid
// {t, t+dt, t+2dt, ...}; x at or before t resolves to t.
func gridCeil(x, t, dt units.Time) units.Time {
	if x <= t {
		return t
	}
	rem := (x - t) % dt
	if rem == 0 {
		return x
	}
	return x + dt - rem
}

var _ interface {
	DeviceTick(now units.Time, dt units.Time)
} = (*Radio)(nil)
