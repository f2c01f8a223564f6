package msm

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/sim"
	"repro/internal/units"
)

// Gate names exported by smdd (Fig. 16: "the user-level smdd daemon
// manages the shared memory interface on the ARM11 and exports
// interfaces to the radio, GPS, battery sensor, and so on via gate
// calls").
const (
	GateBattery = "smd.battery"
	GateSMS     = "smd.sms.send"
	GateDial    = "smd.dial"
	GateHangup  = "smd.hangup"
	GateGPS     = "smd.gps"
)

// ErrBusy reports a dial while a call is already in progress.
var ErrBusy = errors.New("msm: call already in progress")

// BatteryRequest asks for the quantized battery level.
type BatteryRequest struct {
	// OnReply receives the 0–100 reading.
	OnReply func(pct int64)
}

// SMSRequest sends a text message.
type SMSRequest struct {
	Body string
	// OnSent runs when the baseband confirms transmission.
	OnSent func(at units.Time)
}

// DialRequest initiates a voice call. The paper's prototype "can
// initiate and receive voice calls, but as it does not yet have a port
// of the audio library, calls are silent" — ours are silent too.
type DialRequest struct {
	Number string
	// OnState receives call-state transitions.
	OnState func(s CallState)
}

// GPSRequest starts or stops the GPS engine.
type GPSRequest struct {
	Start bool
	// OnFix receives each position fix while tracking.
	OnFix func(at units.Time)
}

// SmddConfig parameterizes the daemon.
type SmddConfig struct {
	// SMSEnergy is billed to the sender per message. The paper prices
	// only the data path; this constant is synthetic (control-channel
	// transmission ≈ a short radio burst).
	SMSEnergy units.Energy
	// CallExtraPower is the device draw during an active voice call,
	// billed to the dialling thread's reserve. Synthetic.
	CallExtraPower units.Power
	// GPSExtraPower is the draw while the GPS engine is on, billed to
	// the thread that started it. Synthetic.
	GPSExtraPower units.Power
}

// DefaultSmddConfig returns the synthetic peripheral constants.
func DefaultSmddConfig() SmddConfig {
	return SmddConfig{
		SMSEnergy:      2 * units.Joule,
		CallExtraPower: units.Milliwatts(800),
		GPSExtraPower:  units.Milliwatts(150),
	}
}

// Stats counts smdd activity.
type Stats struct {
	BatteryReads int64
	SMSSent      int64
	CallsPlaced  int64
	GPSFixes     int64
	IncomingSMS  int64
}

type pending struct {
	kind    MsgKind
	onReply func(m Message)
}

// Smdd is the ARM11-side shared-memory daemon.
type Smdd struct {
	k    *kernel.Kernel
	sm   *SharedMemory
	arm9 *ARM9
	cfg  SmddConfig
	cat  label.Category
	priv label.Priv

	container *kobj.Container
	seq       uint64
	pend      map[uint64]pending

	// Continuous-draw billing targets (set while a call / GPS session
	// is active).
	callBill  *core.Reserve
	callPriv  label.Priv
	callCarry int64
	onCall    func(CallState)
	gpsBill   *core.Reserve
	gpsPriv   label.Priv
	gpsCarry  int64
	onFix     func(at units.Time)

	onIncomingSMS  func(body string)
	onIncomingCall func(number string)
	stats          Stats
}

// NewSmdd boots the daemon: it creates the shared-memory channel and the
// ARM9 model, registers its gates, and hooks the inter-core interrupt.
func NewSmdd(k *kernel.Kernel, cfg SmddConfig, arm9cfg ARM9Config) (*Smdd, error) {
	d := &Smdd{k: k, cfg: cfg, pend: make(map[uint64]pending)}
	d.cat = k.NewCategory()
	d.priv = label.NewPriv(d.cat)
	d.container = kobj.NewContainer(k.Table, k.Root, "smdd", label.Public())

	d.sm = NewSharedMemory(k.Eng, 5*units.Millisecond)
	d.arm9 = NewARM9(k.Eng, d.sm, arm9cfg, func() int64 {
		lvl, err := k.Battery().Level(k.KernelPriv())
		if err != nil {
			return 0
		}
		return int64(lvl) * 100 / int64(k.Graph.Capacity())
	})
	d.sm.OnAppIRQ(func() { d.drain() })

	type gateSpec struct {
		name string
		fn   kernel.Service
	}
	for _, g := range []gateSpec{
		{GateBattery, d.handleBattery},
		{GateSMS, d.handleSMS},
		{GateDial, d.handleDial},
		{GateHangup, d.handleHangup},
		{GateGPS, d.handleGPS},
	} {
		if _, err := d.k.RegisterGate(d.container, g.name, label.Public(), d.priv, nil, g.fn); err != nil {
			return nil, fmt.Errorf("msm: %w", err)
		}
	}
	k.AddDevice(d)
	return d, nil
}

// ARM9 exposes the baseband model (tests inject incoming traffic).
func (d *Smdd) ARM9() *ARM9 { return d.arm9 }

// Quiescent reports whether smdd's per-tick servicing is currently a
// no-op: DeviceTick only bills while a voice call is active or the GPS
// engine is powered. While quiescent the kernel may park its device
// task; the activity hook (below) revives it the instant a continuous
// draw begins.
func (d *Smdd) Quiescent() bool {
	return d.arm9.CallStateNow() != CallActive && !d.arm9.GPSOn()
}

// SetActivityHook subscribes the kernel's resume hook to the baseband's
// leave-quiescence transitions (call goes active, GPS powers on).
func (d *Smdd) SetActivityHook(fn func()) { d.arm9.SetActivityHook(fn) }

// Stats returns a copy of the counters.
func (d *Smdd) Stats() Stats { return d.stats }

// OnIncomingSMS registers the handler for mobile-terminated messages.
func (d *Smdd) OnIncomingSMS(fn func(body string)) { d.onIncomingSMS = fn }

// OnIncomingCall registers the handler for mobile-terminated calls.
func (d *Smdd) OnIncomingCall(fn func(number string)) { d.onIncomingCall = fn }

// post sends a request to the baseband and records the reply handler.
func (d *Smdd) post(kind MsgKind, arg int64, str string, onReply func(Message)) {
	d.seq++
	if onReply != nil {
		d.pend[d.seq] = pending{kind: kind, onReply: onReply}
	}
	m := Message{Kind: kind, Seq: d.seq, Arg: arg, Str: str}
	// Request delivery crosses the shared memory with the same latency
	// as responses.
	d.k.Eng.After(5*units.Millisecond, func(*sim.Engine) { d.arm9.Request(m) })
}

// drain processes ARM9→ARM11 messages (the interrupt handler).
func (d *Smdd) drain() {
	for _, m := range d.sm.DrainApps() {
		switch m.Kind {
		case EvIncomingSMS:
			d.stats.IncomingSMS++
			if d.onIncomingSMS != nil {
				d.onIncomingSMS(m.Str)
			}
		case EvIncomingCall:
			if d.onIncomingCall != nil {
				d.onIncomingCall(m.Str)
			}
		case EvGPSFix:
			d.stats.GPSFixes++
			if d.onFix != nil {
				d.onFix(d.k.Now())
			}
		case RespCallState:
			// Terminal states clear the continuous billing.
			if CallState(m.Arg) == CallEnded {
				d.callBill = nil
			}
			if d.onCall != nil {
				d.onCall(CallState(m.Arg))
			}
			if p, ok := d.pend[m.Seq]; ok && p.onReply != nil {
				p.onReply(m)
				// Keep the pending entry: dial gets two replies
				// (dialing, then active); it is dropped on hangup.
			}
		default:
			if p, ok := d.pend[m.Seq]; ok {
				delete(d.pend, m.Seq)
				if p.onReply != nil {
					p.onReply(m)
				}
			}
		}
	}
}

// handleBattery services the battery-level gate. Reading the sensor is
// asynchronous (a round trip to the ARM9) but nearly free.
func (d *Smdd) handleBattery(call *kernel.Call) (any, error) {
	req, ok := call.Args.(BatteryRequest)
	if !ok {
		return nil, fmt.Errorf("msm: bad battery request %T", call.Args)
	}
	d.stats.BatteryReads++
	th := call.Caller
	th.Block()
	d.post(ReqBatteryLevel, 0, "", func(m Message) {
		th.Wake()
		if req.OnReply != nil {
			req.OnReply(m.Arg)
		}
	})
	return nil, nil
}

// handleSMS bills the sender for the transmission and blocks until the
// baseband confirms.
func (d *Smdd) handleSMS(call *kernel.Call) (any, error) {
	req, ok := call.Args.(SMSRequest)
	if !ok {
		return nil, fmt.Errorf("msm: bad sms request %T", call.Args)
	}
	bill := call.BillTo()
	if bill == nil {
		return nil, fmt.Errorf("msm: sms caller has no reserve")
	}
	// All-or-nothing admission: no energy, no message (§3.2 semantics).
	if err := bill.Consume(call.BillPriv(), d.cfg.SMSEnergy); err != nil {
		return nil, fmt.Errorf("msm: sms: %w", err)
	}
	d.stats.SMSSent++
	th := call.Caller
	th.Block()
	d.post(ReqSendSMS, int64(len(req.Body)), req.Body, func(m Message) {
		th.Wake()
		if req.OnSent != nil {
			req.OnSent(d.k.Now())
		}
	})
	return nil, nil
}

// handleDial starts a voice call; while it is active the call's power
// draw is billed to the dialler's reserve each tick.
func (d *Smdd) handleDial(call *kernel.Call) (any, error) {
	req, ok := call.Args.(DialRequest)
	if !ok {
		return nil, fmt.Errorf("msm: bad dial request %T", call.Args)
	}
	if d.callBill != nil || d.arm9.CallStateNow() != CallIdle {
		return nil, ErrBusy
	}
	d.stats.CallsPlaced++
	d.callBill = call.BillTo()
	d.callPriv = call.BillPriv()
	d.onCall = req.OnState
	d.post(ReqDial, 0, req.Number, func(m Message) {})
	return nil, nil
}

// handleHangup ends the current call.
func (d *Smdd) handleHangup(call *kernel.Call) (any, error) {
	d.post(ReqHangup, 0, "", nil)
	return nil, nil
}

// handleGPS starts or stops the GPS engine, billing its draw to the
// starting thread.
func (d *Smdd) handleGPS(call *kernel.Call) (any, error) {
	req, ok := call.Args.(GPSRequest)
	if !ok {
		return nil, fmt.Errorf("msm: bad gps request %T", call.Args)
	}
	if req.Start {
		d.gpsBill = call.BillTo()
		d.gpsPriv = call.BillPriv()
		d.onFix = req.OnFix
		d.post(ReqGPSStart, 0, "", nil)
	} else {
		d.post(ReqGPSStop, 0, "", nil)
		d.gpsBill = nil
		d.onFix = nil
	}
	return nil, nil
}

// DeviceTick bills continuous peripheral draw: an active voice call and
// a powered GPS engine, each against the requesting thread's reserve
// (falling back to the battery — the device keeps drawing whether or
// not the app can pay, exactly the accounting gap reserves make
// visible).
func (d *Smdd) DeviceTick(now units.Time, dt units.Time) {
	if d.arm9.CallStateNow() == CallActive {
		var e units.Energy
		e, d.callCarry = d.cfg.CallExtraPower.OverRem(dt, d.callCarry)
		d.billPeripheral(e, d.callBill, d.callPriv)
	}
	if d.arm9.GPSOn() {
		var e units.Energy
		e, d.gpsCarry = d.cfg.GPSExtraPower.OverRem(dt, d.gpsCarry)
		d.billPeripheral(e, d.gpsBill, d.gpsPriv)
	}
}

func (d *Smdd) billPeripheral(e units.Energy, bill *core.Reserve, p label.Priv) {
	if e <= 0 {
		return
	}
	if bill != nil && !bill.Dead() {
		if err := bill.DebitSelf(p, e); err == nil {
			return
		}
		if err := bill.Consume(p, e); err == nil {
			return
		}
	}
	_ = d.k.Battery().Consume(d.k.KernelPriv(), e)
}

// Closed-form settlement (kernel.SettleableDevice):
// between executed instants the baseband's continuous draws are fully
// determined — call state and GPS power change only from gate calls and
// ARM9 events, which happen at executed instants after settlement has
// caught up — so a span of skipped ticks is n identical constant-power
// billings whose carry arithmetic telescopes into one debit.
//
// Exactness against tap flows needs care because smdd bills whichever
// reserve the requesting thread used, and that reserve is typically fed
// by a live tap (the dialer's 1 W funding tap). SettleSafe holds the
// commutation argument: a debt-allowed DebitSelf of a level-independent
// amount commutes with tap credits into the same reserve (both are
// unconditional integer additions; nothing reads the level in between),
// so reordering device billing before the window's flow batches is
// exact provided no active tap *drains* the billing reserve (a draining
// tap clamps to — and a proportional one reads — the source level).
// Reserves that refuse debt are settleable only while untapped; then
// settleSpan falls back to tick-by-tick replay whenever the level
// cannot cover a whole span, preserving the exact spill-to-battery
// sequence of a per-tick run.

// PeakDraw bounds smdd's per-tick draw: a voice call and the GPS engine
// drawing simultaneously. The kernel budgets it against the battery's
// depletion horizon before settling a span in closed form (pessimistic:
// draw billed to an app reserve instead only leaves the battery fuller).
func (d *Smdd) PeakDraw() units.Power {
	return d.cfg.CallExtraPower + d.cfg.GPSExtraPower
}

// SettleSafe implements kernel.SettleableDevice: it reports whether
// the currently active billing targets commute with tap flows (see the
// commutation argument above).
func (d *Smdd) SettleSafe() bool {
	callOn := d.arm9.CallStateNow() == CallActive
	gpsOn := d.arm9.GPSOn()
	if callOn && !d.billSettleSafe(d.callBill, d.callPriv) {
		return false
	}
	if gpsOn && !d.billSettleSafe(d.gpsBill, d.gpsPriv) {
		return false
	}
	if callOn && gpsOn && d.callBill != nil && d.callBill == d.gpsBill &&
		!d.callBill.Dead() && !d.callBill.AllowDebt() {
		// Both draws bill one debt-refusing reserve: DeviceTick
		// interleaves them per tick, so once the level cannot cover both
		// totals the spill splits between the streams differently than
		// SettleTicks' sequential per-stream telescoping would attribute
		// it. Replay per tick instead.
		return false
	}
	return true
}

func (d *Smdd) billSettleSafe(bill *core.Reserve, p label.Priv) bool {
	if bill == nil || bill.Dead() {
		return true // pure battery path, clamp-guarded by the horizon
	}
	if !p.CanUse(bill.Label()) {
		return true // every tick deterministically falls through to the battery
	}
	g := d.k.Graph
	if g.ReserveDrainedByTap(bill) {
		return false
	}
	if bill.AllowDebt() {
		return true
	}
	// Without debt a debit can clamp on the level, whose trajectory then
	// depends on interleaved tap credits: exact only while untapped.
	return !g.ReserveTapped(bill)
}

// SettleTicks implements kernel.SettleableDevice: exactly the
// DeviceTick calls the parked device task skipped, one per tick instant
// from `from` through `to` inclusive, telescoped per continuous draw.
func (d *Smdd) SettleTicks(from, to, dt units.Time) {
	n := int64((to-from)/dt) + 1
	if to < from || n <= 0 {
		return
	}
	if d.arm9.CallStateNow() == CallActive {
		d.callCarry = d.settleSpan(n, dt, d.cfg.CallExtraPower, d.callCarry, d.callBill, d.callPriv)
	}
	if d.arm9.GPSOn() {
		d.gpsCarry = d.settleSpan(n, dt, d.cfg.GPSExtraPower, d.gpsCarry, d.gpsBill, d.gpsPriv)
	}
}

// settleSpan bills n ticks of constant extra power in one telescoped
// debit when the target can cover (or owe) the total, or tick by tick
// when it cannot, so the exact instant billing spills to Consume or the
// battery matches a per-tick run. It returns the updated carry.
//
// Unlike the radio's fund, the spill cannot split in closed form: a
// tick the target cannot cover first fails DebitSelf and Consume, each
// failing Consume counting a ConsumeFailure, and is then billed whole
// to the battery, so the target is not drained as a prefix and the
// failure count grows with every spilled tick. The loop is cheap where
// it matters: about 0.007 s per thousand device-days of the benchmark's
// day-mix on a 2-core host.
func (d *Smdd) settleSpan(n int64, dt units.Time, p units.Power, carry int64, bill *core.Reserve, priv label.Priv) int64 {
	total := int64(p)*int64(dt)*n + carry
	e := units.Energy(total / 1000)
	if e <= 0 {
		return total % 1000
	}
	if bill != nil && !bill.Dead() {
		if bill.CanDebitSelf(priv, e) {
			_ = bill.DebitSelf(priv, e)
			return total % 1000
		}
		for i := int64(0); i < n; i++ {
			var ei units.Energy
			ei, carry = p.OverRem(dt, carry)
			d.billPeripheral(ei, bill, priv)
		}
		return carry
	}
	_ = d.k.Battery().Consume(d.k.KernelPriv(), e)
	return total % 1000
}

var _ kernel.SettleableDevice = (*Smdd)(nil)
