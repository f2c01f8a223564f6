package msm

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/label"
	"repro/internal/sched"
	"repro/internal/units"
)

// rig builds a kernel with smdd and a funded application thread that
// executes fn once.
type rig struct {
	k    *kernel.Kernel
	d    *Smdd
	res  *core.Reserve
	th   *sched.Thread
	errc chan error
}

func newRig(t *testing.T, fund units.Energy, fn func(r *rig, th *sched.Thread) error) *rig {
	t.Helper()
	k := kernel.New(kernel.Config{Seed: 8, DecayHalfLife: -1})
	d, err := NewSmdd(k, DefaultSmddConfig(), DefaultARM9Config())
	if err != nil {
		t.Fatal(err)
	}
	res := k.CreateReserveOpts(k.Root, "app", label.Public(), core.ReserveOpts{AllowDebt: true})
	if fund > 0 {
		if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), res, fund); err != nil {
			t.Fatal(err)
		}
	}
	r := &rig{k: k, d: d, res: res, errc: make(chan error, 1)}
	ran := false
	_, r.th = k.Spawn(k.Root, "app", label.Priv{}, sched.RunnerFunc(
		func(now units.Time, th *sched.Thread) {
			if ran {
				th.Exit()
				return
			}
			ran = true
			if err := fn(r, th); err != nil {
				select {
				case r.errc <- err:
				default:
				}
			}
		}), res)
	return r
}

func (r *rig) err() error {
	select {
	case err := <-r.errc:
		return err
	default:
		return nil
	}
}

func TestBatteryLevelQuantized(t *testing.T) {
	// §4.1: "the ARM9 exposes the battery level as an integer from 0 to
	// 100". A fresh battery reads 100; reads cost a shared-memory round
	// trip.
	var got int64 = -1
	replies := 0
	r := newRig(t, units.Joule, func(r *rig, th *sched.Thread) error {
		_, err := r.k.GateCall(GateBattery, th, BatteryRequest{
			OnReply: func(pct int64) { got, replies = pct, replies+1 },
		})
		return err
	})
	r.k.Run(units.Second)
	if err := r.err(); err != nil {
		t.Fatal(err)
	}
	if got != 99 && got != 100 { // baseline burn may shave a fraction
		t.Fatalf("battery pct = %d, want ≈100", got)
	}
	if replies != 1 {
		t.Fatalf("replies = %d", replies)
	}
}

func TestSMSBilledToSender(t *testing.T) {
	var sentAt units.Time
	r := newRig(t, 5*units.Joule, func(r *rig, th *sched.Thread) error {
		_, err := r.k.GateCall(GateSMS, th, SMSRequest{
			Body:   "meet at 6",
			OnSent: func(at units.Time) { sentAt = at },
		})
		return err
	})
	r.k.Run(5 * units.Second)
	if err := r.err(); err != nil {
		t.Fatal(err)
	}
	if sentAt == 0 {
		t.Fatal("SMS never confirmed")
	}
	// ≈1.5 s transmit time + shared-memory latency.
	if sentAt < 1500*units.Millisecond {
		t.Fatalf("confirmed at %v, before transmit time", sentAt)
	}
	st, _ := r.res.Stats(label.Priv{})
	if st.Consumed < 2*units.Joule {
		t.Fatalf("sender billed %v, want ≥ SMS energy 2 J", st.Consumed)
	}
	if r.d.Stats().SMSSent != 1 {
		t.Fatal("smdd did not send")
	}
}

func TestSMSRefusedWithoutEnergy(t *testing.T) {
	r := newRig(t, 100*units.Millijoule, func(r *rig, th *sched.Thread) error {
		_, err := r.k.GateCall(GateSMS, th, SMSRequest{Body: "x"})
		if !errors.Is(err, core.ErrInsufficient) {
			t.Errorf("err = %v, want ErrInsufficient", err)
		}
		return nil
	})
	r.k.Run(units.Second)
	if r.d.Stats().SMSSent != 0 {
		t.Fatal("unfunded SMS sent")
	}
}

func TestVoiceCallBilling(t *testing.T) {
	// Dial, let the call run ~20 s, hang up: the dialler pays
	// ≈800 mW × active time.
	var states []CallState
	r := newRig(t, 50*units.Joule, func(r *rig, th *sched.Thread) error {
		_, err := r.k.GateCall(GateDial, th, DialRequest{
			Number:  "+15551234567",
			OnState: func(s CallState) { states = append(states, s) },
		})
		return err
	})
	r.k.Run(24 * units.Second) // 4 s setup + 20 s active
	if r.d.ARM9().CallStateNow() != CallActive {
		t.Fatalf("call state = %v", r.d.ARM9().CallStateNow())
	}
	// Hang up via a second thread (the UI).
	res2 := r.k.CreateReserve(r.k.Root, "ui", label.Public())
	if err := r.k.Graph.Transfer(r.k.KernelPriv(), r.k.Battery(), res2, units.Joule); err != nil {
		t.Fatal(err)
	}
	r.k.Spawn(r.k.Root, "ui", label.Priv{}, sched.RunnerFunc(
		func(now units.Time, th *sched.Thread) {
			if _, err := r.k.GateCall(GateHangup, th, nil); err != nil {
				t.Errorf("hangup: %v", err)
			}
			th.Exit()
		}), res2)
	r.k.Run(2 * units.Second)
	if r.d.ARM9().CallStateNow() != CallIdle {
		t.Fatalf("state after hangup = %v", r.d.ARM9().CallStateNow())
	}
	if err := r.err(); err != nil {
		t.Fatal(err)
	}
	// Billing: ≈20 s active × 800 mW = 16 J (plus CPU noise).
	st, _ := r.res.Stats(label.Priv{})
	want := units.Joules(16)
	if st.Consumed < want*85/100 || st.Consumed > want*120/100 {
		t.Fatalf("dialler billed %v, want ≈%v", st.Consumed, want)
	}
	// State transitions: dialing then active (then ended delivered to
	// the registered handler).
	if len(states) < 2 || states[0] != CallDialing || states[1] != CallActive {
		t.Fatalf("states = %v", states)
	}
}

func TestSecondDialRefused(t *testing.T) {
	r := newRig(t, 50*units.Joule, func(r *rig, th *sched.Thread) error {
		if _, err := r.k.GateCall(GateDial, th, DialRequest{Number: "1"}); err != nil {
			return err
		}
		_, err := r.k.GateCall(GateDial, th, DialRequest{Number: "2"})
		if !errors.Is(err, ErrBusy) {
			t.Errorf("second dial err = %v, want ErrBusy", err)
		}
		return nil
	})
	r.k.Run(2 * units.Second)
	if err := r.err(); err != nil {
		t.Fatal(err)
	}
	if r.d.Stats().CallsPlaced != 1 {
		t.Fatalf("calls placed = %d", r.d.Stats().CallsPlaced)
	}
}

func TestGPSFixesAndBilling(t *testing.T) {
	var fixes int
	r := newRig(t, 20*units.Joule, func(r *rig, th *sched.Thread) error {
		_, err := r.k.GateCall(GateGPS, th, GPSRequest{
			Start: true,
			OnFix: func(at units.Time) { fixes++ },
		})
		return err
	})
	// 12 s acquisition, then 1 Hz fixes: 30 s total → ≈18 fixes.
	r.k.Run(30 * units.Second)
	if err := r.err(); err != nil {
		t.Fatal(err)
	}
	if fixes < 15 || fixes > 21 {
		t.Fatalf("fixes = %d, want ≈18", fixes)
	}
	// Billing ≈ 30 s × 150 mW = 4.5 J.
	st, _ := r.res.Stats(label.Priv{})
	want := units.Joules(4.5)
	if st.Consumed < want*85/100 || st.Consumed > want*120/100 {
		t.Fatalf("GPS user billed %v, want ≈%v", st.Consumed, want)
	}
	// Stop: fixes cease.
	res2 := r.k.CreateReserve(r.k.Root, "ui", label.Public())
	if err := r.k.Graph.Transfer(r.k.KernelPriv(), r.k.Battery(), res2, units.Joule); err != nil {
		t.Fatal(err)
	}
	r.k.Spawn(r.k.Root, "stopper", label.Priv{}, sched.RunnerFunc(
		func(now units.Time, th *sched.Thread) {
			if _, err := r.k.GateCall(GateGPS, th, GPSRequest{Start: false}); err != nil {
				t.Errorf("gps stop: %v", err)
			}
			th.Exit()
		}), res2)
	r.k.Run(units.Second)
	before := fixes
	r.k.Run(5 * units.Second)
	if fixes != before {
		t.Fatalf("fixes after stop: %d → %d", before, fixes)
	}
	if r.d.ARM9().GPSOn() {
		t.Fatal("GPS still on")
	}
}

func TestIncomingSMSEvent(t *testing.T) {
	k := kernel.New(kernel.Config{Seed: 9, DecayHalfLife: -1})
	d, err := NewSmdd(k, DefaultSmddConfig(), DefaultARM9Config())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	d.OnIncomingSMS(func(body string) { got = append(got, body) })
	d.ARM9().InjectIncomingSMS("hello")
	k.Run(100 * units.Millisecond)
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("incoming SMS delivered %q, want one \"hello\"", got)
	}
}

func TestBatteryPercentDropsAsSystemRuns(t *testing.T) {
	// With a small battery, the 0–100 reading visibly decreases — the
	// only power visibility the closed ARM9 grants (§4.1).
	k := kernel.New(kernel.Config{
		Seed: 11, DecayHalfLife: -1,
		BatteryCapacity: 100 * units.Joule,
	})
	d, err := NewSmdd(k, DefaultSmddConfig(), DefaultARM9Config())
	if err != nil {
		t.Fatal(err)
	}
	res := k.CreateReserve(k.Root, "app", label.Public())
	if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), res, units.Joule); err != nil {
		t.Fatal(err)
	}
	var readings []int64
	poll := func(now units.Time, th *sched.Thread) {
		if _, err := k.GateCall(GateBattery, th, BatteryRequest{
			OnReply: func(pct int64) { readings = append(readings, pct) },
		}); err != nil {
			t.Errorf("battery gate: %v", err)
			th.Exit()
		}
	}
	_ = d
	th := k.Sched.NewThread(k.Root, "meter", label.Public(), label.Priv{},
		sched.RunnerFunc(func(now units.Time, th *sched.Thread) {
			poll(now, th)
		}), res)
	_ = th
	k.Run(60 * units.Second) // 699 mW on 100 J ≈ −42 % over 60 s
	if len(readings) < 2 {
		t.Fatalf("readings = %v", readings)
	}
	first, last := readings[0], readings[len(readings)-1]
	if last >= first {
		t.Fatalf("battery reading did not drop: %d → %d", first, last)
	}
	for _, p := range readings {
		if p < 0 || p > 100 {
			t.Fatalf("reading %d out of 0–100", p)
		}
	}
}

// TestSharedReserveCallPlusGPSSettleEquivalence locks in the
// SettleSafe refusal for the one interleaving-sensitive case: a voice
// call and the GPS engine simultaneously billing the *same*
// debt-refusing reserve. Once the level cannot cover both totals,
// DeviceTick's per-tick interleaving splits the spill-to-battery
// between the two draws in a way sequential per-stream telescoping
// cannot reproduce — so closed-form settlement must replay this case
// per tick, and every accounting figure must match the reference
// configuration exactly.
func TestSharedReserveCallPlusGPSSettleEquivalence(t *testing.T) {
	type outcome struct {
		consumed units.Energy
		battery  units.Energy
		stats    core.Accounting
		calls    int64
		fixes    int64
	}
	run := func(reference bool) outcome {
		k := kernel.New(kernel.Config{Seed: 8, DecayHalfLife: -1, Reference: reference})
		d, err := NewSmdd(k, DefaultSmddConfig(), DefaultARM9Config())
		if err != nil {
			t.Fatal(err)
		}
		// Debt-refusing shared reserve, funded for a few seconds of the
		// combined 950 mW draw so both streams starve mid-run.
		res := k.CreateReserve(k.Root, "shared", label.Public())
		if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), res, 3*units.Joule); err != nil {
			t.Fatal(err)
		}
		ran := false
		var fixes int64
		k.Spawn(k.Root, "app", label.Priv{}, sched.RunnerFunc(
			func(now units.Time, th *sched.Thread) {
				if ran {
					th.Exit()
					return
				}
				ran = true
				if _, err := k.GateCall(GateDial, th, DialRequest{Number: "555"}); err != nil {
					t.Errorf("dial: %v", err)
				}
				th.Wake() // the dial gate blocks; keep stepping to start GPS too
				if _, err := k.GateCall(GateGPS, th, GPSRequest{Start: true, OnFix: func(units.Time) { fixes++ }}); err != nil {
					t.Errorf("gps: %v", err)
				}
			}), res)
		k.Run(20 * units.Second)
		if d.arm9.CallStateNow() != CallActive || !d.arm9.GPSOn() {
			t.Fatalf("reference=%v: call %v gps %v, want both active",
				reference, d.arm9.CallStateNow(), d.arm9.GPSOn())
		}
		st, err := res.Stats(k.KernelPriv())
		if err != nil {
			t.Fatal(err)
		}
		lvl, err := k.Battery().Level(k.KernelPriv())
		if err != nil {
			t.Fatal(err)
		}
		return outcome{k.Consumed(), lvl, st, d.Stats().CallsPlaced, fixes}
	}
	closed := run(false)
	ref := run(true)
	if closed != ref {
		t.Fatalf("closed-form settlement diverges on a shared non-debt reserve:\n%+v\nvs reference\n%+v",
			closed, ref)
	}
}
