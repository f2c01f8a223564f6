// Package msm models the Qualcomm MSM7201A's two-core architecture as
// the paper describes it (§4.1, §7, Figures 2, 15, 16): applications and
// Cinder run on the ARM11, while a secure, closed ARM9 coprocessor
// manages the most energy-hungry components — the radio data path, GPS,
// voice calls, SMS, and the battery sensor (exposed only as an integer
// from 0 to 100). The two cores communicate through shared memory and
// interrupt lines.
//
// On the Cinder side, the user-level smdd daemon (smdd.go) drains the
// shared-memory channel and exports the baseband services as kernel
// gates, so every request is billed to the *calling* thread's reserve
// (§5.5.1) — the property that motivated building on HiStar rather than
// Linux.
//
// The ARM9's behaviour is deliberately opaque to the rest of the system:
// its power draw is modelled (voice-call and GPS draw are synthetic,
// flagged in DESIGN.md — the paper publishes no numbers for them), its
// timeouts are fixed, and the ARM11 can only talk to it through
// messages, mirroring "the closed nature of its hardware".
package msm

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// MsgKind enumerates the shared-memory message types.
type MsgKind uint8

const (
	// ARM11 → ARM9 requests.
	ReqBatteryLevel MsgKind = iota
	ReqSendSMS
	ReqDial
	ReqHangup
	ReqGPSStart
	ReqGPSStop

	// ARM9 → ARM11 responses and events.
	RespBatteryLevel
	RespSMSSent
	RespCallState
	EvIncomingSMS
	EvGPSFix
)

// Message is one shared-memory datagram between the cores.
type Message struct {
	Kind MsgKind
	// Seq correlates responses with requests.
	Seq uint64
	// Arg carries a small integer payload (battery percent, call state,
	// SMS length...).
	Arg int64
	// Str carries a text payload (dialled number, SMS body).
	Str string
}

// CallState enumerates the voice-call state machine.
type CallState uint8

const (
	CallIdle CallState = iota
	CallDialing
	CallActive
	CallEnded
)

// String returns the call-state name.
func (s CallState) String() string {
	switch s {
	case CallIdle:
		return "idle"
	case CallDialing:
		return "dialing"
	case CallActive:
		return "active"
	default:
		return "ended"
	}
}

// SharedMemory is the inter-core channel: two bounded queues plus an
// interrupt callback per direction. Messages are delivered with a small
// latency, modelling the interrupt + copy path.
type SharedMemory struct {
	eng     *sim.Engine
	latency units.Time
	// toApps is drained by smdd on the ARM11.
	toApps []Message
	// irqApps fires when a message lands in toApps.
	irqApps func()
}

// NewSharedMemory creates the channel with the given delivery latency
// (a few ms on real hardware).
func NewSharedMemory(eng *sim.Engine, latency units.Time) *SharedMemory {
	if latency <= 0 {
		latency = 5 * units.Millisecond
	}
	return &SharedMemory{eng: eng, latency: latency}
}

// OnAppIRQ registers the ARM11-side interrupt handler (smdd's).
func (sm *SharedMemory) OnAppIRQ(fn func()) { sm.irqApps = fn }

// postToApps schedules delivery of a message to the ARM11 side.
func (sm *SharedMemory) postToApps(m Message) {
	sm.eng.After(sm.latency, func(*sim.Engine) {
		sm.toApps = append(sm.toApps, m)
		if sm.irqApps != nil {
			sm.irqApps()
		}
	})
}

// DrainApps returns and clears the pending ARM11-bound messages.
func (sm *SharedMemory) DrainApps() []Message {
	out := sm.toApps
	sm.toApps = nil
	return out
}

// ARM9Config parameterizes the baseband model.
type ARM9Config struct {
	// SMSTransmitTime is the radio time to push one message.
	SMSTransmitTime units.Time
	// CallSetupTime is dial → active latency.
	CallSetupTime units.Time
	// GPSFixTime is the cold-fix acquisition latency.
	GPSFixTime units.Time
	// GPSFixInterval is the period between fixes while tracking.
	GPSFixInterval units.Time
}

// DefaultARM9Config returns plausible cellular latencies.
func DefaultARM9Config() ARM9Config {
	return ARM9Config{
		SMSTransmitTime: 1500 * units.Millisecond,
		CallSetupTime:   4 * units.Second,
		GPSFixTime:      12 * units.Second,
		GPSFixInterval:  units.Second,
	}
}

// ARM9 is the closed baseband coprocessor.
type ARM9 struct {
	eng *sim.Engine
	sm  *SharedMemory
	cfg ARM9Config
	// batteryPercent supplies the quantized battery reading (the only
	// visibility the ARM9 grants, §4.1).
	batteryPercent func() int64

	call    CallState
	gpsOn   bool
	gpsTask *sim.Task
	// onActivity, when set, fires the moment the baseband starts a
	// continuous draw (call goes active, GPS engine powers on) — the
	// instants at which smdd stops being quiescent and the kernel must
	// resume per-tick device servicing.
	onActivity func()
}

// SetActivityHook installs fn to be called when the baseband begins a
// continuous draw. Pass nil to remove.
func (a *ARM9) SetActivityHook(fn func()) { a.onActivity = fn }

func (a *ARM9) notifyActivity() {
	if a.onActivity != nil {
		a.onActivity()
	}
}

// NewARM9 boots the baseband. batteryPercent is sampled on demand.
func NewARM9(eng *sim.Engine, sm *SharedMemory, cfg ARM9Config, batteryPercent func() int64) *ARM9 {
	return &ARM9{eng: eng, sm: sm, cfg: cfg, batteryPercent: batteryPercent}
}

// Request is the ARM11→ARM9 entry point (what a write to the shared
// memory ring ends up invoking after the interrupt).
func (a *ARM9) Request(m Message) {
	switch m.Kind {
	case ReqBatteryLevel:
		p := a.batteryPercent()
		if p < 0 {
			p = 0
		}
		if p > 100 {
			p = 100
		}
		a.sm.postToApps(Message{Kind: RespBatteryLevel, Seq: m.Seq, Arg: p})
	case ReqSendSMS:
		a.eng.After(a.cfg.SMSTransmitTime, func(*sim.Engine) {
			a.sm.postToApps(Message{Kind: RespSMSSent, Seq: m.Seq, Arg: int64(len(m.Str))})
		})
	case ReqDial:
		if a.call != CallIdle {
			a.sm.postToApps(Message{Kind: RespCallState, Seq: m.Seq, Arg: int64(a.call)})
			return
		}
		a.call = CallDialing
		a.sm.postToApps(Message{Kind: RespCallState, Seq: m.Seq, Arg: int64(CallDialing)})
		a.eng.After(a.cfg.CallSetupTime, func(*sim.Engine) {
			if a.call == CallDialing {
				a.call = CallActive
				a.notifyActivity()
				a.sm.postToApps(Message{Kind: RespCallState, Seq: m.Seq, Arg: int64(CallActive)})
			}
		})
	case ReqHangup:
		if a.call != CallIdle {
			a.call = CallIdle
			a.sm.postToApps(Message{Kind: RespCallState, Seq: m.Seq, Arg: int64(CallEnded)})
		}
	case ReqGPSStart:
		if a.gpsOn {
			return
		}
		a.gpsOn = true
		a.notifyActivity()
		first := a.eng.Now() + a.cfg.GPSFixTime
		a.gpsTask = a.eng.EveryPhased("arm9:gps",
			a.cfg.GPSFixInterval, alignUp(first, a.cfg.GPSFixInterval),
			func(e *sim.Engine) {
				a.sm.postToApps(Message{Kind: EvGPSFix, Arg: int64(e.Now())})
			})
	case ReqGPSStop:
		if a.gpsTask != nil {
			a.gpsTask.Stop()
			a.gpsTask = nil
		}
		a.gpsOn = false
	default:
		// The closed firmware silently drops unknown requests.
	}
}

// InjectIncomingSMS simulates a network-originated message (tests and
// examples use it).
func (a *ARM9) InjectIncomingSMS(body string) {
	a.sm.postToApps(Message{Kind: EvIncomingSMS, Arg: int64(len(body)), Str: body})
}

// CallStateNow returns the baseband's call state.
func (a *ARM9) CallStateNow() CallState { return a.call }

// GPSOn reports whether the GPS engine is powered.
func (a *ARM9) GPSOn() bool { return a.gpsOn }

// alignUp rounds t up to the next multiple of step (the engine requires
// phases on the tick grid; step is always tick-aligned here).
func alignUp(t, step units.Time) units.Time {
	if step <= 0 {
		return t
	}
	rem := t % step
	if rem == 0 {
		return t
	}
	return t + step - rem
}
