package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/msm"
	"repro/internal/sched"
	"repro/internal/units"
)

// Dialer is the phone application of Fig. 16 ("gates are used by both
// user applications (browser, dialer) and OS daemons"), made
// energy-aware: before placing a call it reads the ARM9's battery
// percentage through the smd.battery gate and refuses to dial below a
// floor — the §5.3 pattern of degrading behaviour to meet a budget,
// applied to the most user-visible feature of a phone.
type Dialer struct {
	Container *kobj.Container
	Reserve   *core.Reserve

	// MinBatteryPct is the refusal floor.
	MinBatteryPct int64

	// Outcome of the last call attempt.
	LastBatteryPct int64
	Refused        bool
	HungUpAt       units.Time

	k        *kernel.Kernel
	number   string
	duration units.Time
	state    int
	hangAt   units.Time
}

// DialerConfig parameterizes a call attempt.
type DialerConfig struct {
	// Number to dial; Duration to hold the call before hanging up.
	Number   string
	Duration units.Time
	// Rate funds the dialer's reserve; calls draw ≈800 mW, so an
	// underfunded dialer accumulates debt visible in its accounting.
	Rate units.Power
	// MinBatteryPct refuses calls below this battery reading.
	MinBatteryPct int64
}

// NewDialer spawns the dialer; it places one call and exits.
func NewDialer(k *kernel.Kernel, parent *kobj.Container, ownerPriv label.Priv, src *core.Reserve, cfg DialerConfig) (*Dialer, error) {
	d := &Dialer{
		k:             k,
		number:        cfg.Number,
		duration:      cfg.Duration,
		MinBatteryPct: cfg.MinBatteryPct,
	}
	d.Container = kobj.NewContainer(k.Table, parent, label.Public())
	d.Reserve = k.CreateReserveOpts(d.Container, "dialer-reserve", label.Public(),
		core.ReserveOpts{AllowDebt: true})
	tap, err := k.CreateTap(d.Container, "dialer-tap", ownerPriv, src, d.Reserve, label.Public())
	if err != nil {
		return nil, fmt.Errorf("apps: dialer: %w", err)
	}
	if err := tap.SetRate(ownerPriv, cfg.Rate); err != nil {
		return nil, fmt.Errorf("apps: dialer: %w", err)
	}
	k.Sched.NewThread(d.Container, "dialer", label.Public(), label.Priv{},
		sched.RunnerFunc(d.step), d.Reserve)
	return d, nil
}

// dialer states.
const (
	dialerCheckBattery = iota
	dialerDial
	dialerInCall
	dialerDone
)

func (d *Dialer) step(now units.Time, th *sched.Thread) {
	switch d.state {
	case dialerCheckBattery:
		d.state = dialerDial // advanced further by the reply
		_, err := d.k.GateCall(msm.GateBattery, th, msm.BatteryRequest{
			OnReply: func(pct int64) {
				d.LastBatteryPct = pct
				if pct < d.MinBatteryPct {
					d.Refused = true
					d.state = dialerDone
				}
			},
		})
		if err != nil {
			d.Refused = true
			d.state = dialerDone
			th.Exit()
		}
	case dialerDial:
		d.state = dialerInCall
		d.hangAt = 0
		_, err := d.k.GateCall(msm.GateDial, th, msm.DialRequest{
			Number: d.number,
			OnState: func(s msm.CallState) {
				if s == msm.CallActive && d.hangAt == 0 {
					d.hangAt = d.k.Now() + d.duration
				}
			},
		})
		if err != nil {
			d.state = dialerDone
		}
	case dialerInCall:
		if d.hangAt == 0 || now < d.hangAt {
			// Poll once per second while the call runs; a real dialer
			// idles on UI events.
			th.Sleep(now + units.Second)
			return
		}
		if _, err := d.k.GateCall(msm.GateHangup, th, nil); err == nil {
			d.HungUpAt = now
		}
		d.state = dialerDone
	case dialerDone:
		th.Exit()
	}
}

// Done reports whether the dialer finished (call completed or refused).
func (d *Dialer) Done() bool { return d.state == dialerDone }
