package kernel

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/label"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/units"
)

func newTestKernel(cfg Config) *Kernel {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.DecayHalfLife == 0 {
		cfg.DecayHalfLife = -1 // most tests want decay off
	}
	return New(cfg)
}

func TestBaselineDrawMatchesIdlePower(t *testing.T) {
	// 10 s of idle must consume exactly 699 mW × 10 s = 6.99 J.
	k := newTestKernel(Config{})
	k.Run(10 * units.Second)
	got := k.Consumed()
	want := units.Milliwatts(699).Over(10 * units.Second)
	// The t=0 batch fires once more than the interval count; allow one
	// batch of slop.
	slop := units.Milliwatts(699).Over(TapBatch)
	if got < want || got > want+slop {
		t.Fatalf("consumed = %v, want %v (+%v slop)", got, want, slop)
	}
	if k.Graph.ConservationError() != 0 {
		t.Fatalf("conservation error %v", k.Graph.ConservationError())
	}
}

func TestBacklightAddsDraw(t *testing.T) {
	k := newTestKernel(Config{BacklightOn: true})
	k.Run(10 * units.Second)
	base := newTestKernel(Config{})
	base.Run(10 * units.Second)
	delta := k.Consumed() - base.Consumed()
	want := units.Milliwatts(555).Over(10 * units.Second)
	slop := units.Milliwatts(555).Over(TapBatch)
	if delta < want-slop || delta > want+slop {
		t.Fatalf("backlight delta = %v, want ≈%v", delta, want)
	}
}

func TestSpinnerBillsCPUOnTopOfBaseline(t *testing.T) {
	k := newTestKernel(Config{})
	res := k.CreateReserve(k.Root, "r", label.Public())
	if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), res, units.Kilojoule); err != nil {
		t.Fatal(err)
	}
	k.Spawn(k.Root, "spin", label.Priv{}, nil, res)
	k.Run(10 * units.Second)
	st, _ := res.Stats(label.Priv{})
	want := units.Milliwatts(137).Over(10 * units.Second)
	slack := units.Milliwatts(137).Over(10 * units.Millisecond)
	if st.Consumed < want-slack || st.Consumed > want+slack {
		t.Fatalf("CPU billed %v, want ≈%v", st.Consumed, want)
	}
}

func TestWrapLimitsChild(t *testing.T) {
	// energywrap (§5.1): a wrapped spinner limited to 1 mW gets
	// 1 mW / 137 mW ≈ 0.73 % of the CPU.
	k := newTestKernel(Config{})
	res, tap, err := k.Wrap(k.Root, "sandbox", k.KernelPriv(), k.Battery(), units.Milliwatt, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	if tap.Rate() != units.Milliwatt {
		t.Fatalf("tap rate = %v", tap.Rate())
	}
	_, th := k.Spawn(k.Root, "wrapped", label.Priv{}, nil, res)
	k.Run(20 * units.Second)
	st, _ := res.Stats(label.Priv{})
	want := units.Milliwatt.Over(20 * units.Second) // 20 mJ
	if st.Consumed > want {
		t.Fatalf("wrapped child consumed %v, above its %v allotment", st.Consumed, want)
	}
	if st.Consumed < want*8/10 {
		t.Fatalf("wrapped child consumed %v, using under 80%% of %v", st.Consumed, want)
	}
	if th.TicksRun() == 0 {
		t.Fatal("wrapped child never ran")
	}
}

func TestGateBillsCaller(t *testing.T) {
	// §5.5.1: a thread entering a daemon's gate is billed for work the
	// daemon performs. The service debits 10 mJ per call from BillTo.
	k := newTestKernel(Config{})
	daemonRes := k.CreateReserve(k.Root, "daemon", label.Public())
	_, err := k.RegisterGate(k.Root, "svc", label.Public(), label.Priv{}, daemonRes,
		func(call *Call) (any, error) {
			return nil, call.BillTo().Consume(call.BillPriv(), 10*units.Millijoule)
		})
	if err != nil {
		t.Fatal(err)
	}

	callerRes := k.CreateReserve(k.Root, "caller", label.Public())
	if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), callerRes, units.Joule); err != nil {
		t.Fatal(err)
	}
	var callErr error
	_, th := k.Spawn(k.Root, "client", label.Priv{}, sched.RunnerFunc(
		func(now units.Time, th *sched.Thread) {
			_, callErr = k.GateCall("svc", th, nil)
			th.Exit()
		}), callerRes)
	k.Run(100 * units.Millisecond)
	if callErr != nil {
		t.Fatal(callErr)
	}
	st, _ := callerRes.Stats(label.Priv{})
	if st.Consumed < 10*units.Millijoule {
		t.Fatalf("caller billed %v, want ≥10 mJ", st.Consumed)
	}
	dst, _ := daemonRes.Stats(label.Priv{})
	if dst.Consumed != 0 {
		t.Fatalf("daemon billed %v under BillCaller", dst.Consumed)
	}
	_ = th
}

func TestGateBillsDaemonInLinuxMode(t *testing.T) {
	// §7.1: message-passing IPC cannot identify the caller, so the
	// daemon's reserve pays — the attribution failure Cinder-Linux has.
	k := newTestKernel(Config{Billing: BillDaemon})
	daemonRes := k.CreateReserve(k.Root, "daemon", label.Public())
	if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), daemonRes, units.Joule); err != nil {
		t.Fatal(err)
	}
	_, err := k.RegisterGate(k.Root, "svc", label.Public(), label.Priv{}, daemonRes,
		func(call *Call) (any, error) {
			return nil, call.BillTo().Consume(call.BillPriv(), 10*units.Millijoule)
		})
	if err != nil {
		t.Fatal(err)
	}
	callerRes := k.CreateReserve(k.Root, "caller", label.Public())
	if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), callerRes, units.Joule); err != nil {
		t.Fatal(err)
	}
	k.Spawn(k.Root, "client", label.Priv{}, sched.RunnerFunc(
		func(now units.Time, th *sched.Thread) {
			if _, err := k.GateCall("svc", th, nil); err != nil {
				t.Errorf("gate call: %v", err)
			}
			th.Exit()
		}), callerRes)
	k.Run(100 * units.Millisecond)
	dst, _ := daemonRes.Stats(label.Priv{})
	if dst.Consumed != 10*units.Millijoule {
		t.Fatalf("daemon billed %v, want 10 mJ", dst.Consumed)
	}
}

func TestGateRevocation(t *testing.T) {
	k := newTestKernel(Config{})
	g, err := k.RegisterGate(k.Root, "svc", label.Public(), label.Priv{}, nil,
		func(call *Call) (any, error) { return "ok", nil })
	if err != nil {
		t.Fatal(err)
	}
	res := k.CreateReserve(k.Root, "r", label.Public())
	if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), res, units.Joule); err != nil {
		t.Fatal(err)
	}
	th := k.Sched.NewThread(k.Root, "c", label.Public(), label.Priv{}, nil, res)
	if _, err := k.GateCall("svc", th, nil); err != nil {
		t.Fatal(err)
	}
	if err := k.Table.Delete(g.ObjectID()); err != nil {
		t.Fatal(err)
	}
	if _, err := k.GateCall("svc", th, nil); !errors.Is(err, ErrNoGate) {
		t.Fatalf("revoked gate err = %v, want ErrNoGate", err)
	}
}

func TestGateAccessControl(t *testing.T) {
	k := newTestKernel(Config{})
	cat := k.NewCategory()
	lbl := label.Public().With(cat, label.Level2)
	if _, err := k.RegisterGate(k.Root, "private", lbl, label.Priv{}, nil,
		func(call *Call) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	res := k.CreateReserve(k.Root, "r", label.Public())
	outsider := k.Sched.NewThread(k.Root, "o", label.Public(), label.Priv{}, nil, res)
	if _, err := k.GateCall("private", outsider, nil); !errors.Is(err, core.ErrAccess) {
		t.Fatalf("outsider entered private gate: %v", err)
	}
	insider := k.Sched.NewThread(k.Root, "i", label.Public(), label.NewPriv(cat), nil, res)
	if _, err := k.GateCall("private", insider, nil); err != nil {
		t.Fatalf("insider rejected: %v", err)
	}
}

func TestDuplicateGateName(t *testing.T) {
	k := newTestKernel(Config{})
	svc := func(call *Call) (any, error) { return nil, nil }
	if _, err := k.RegisterGate(k.Root, "svc", label.Public(), label.Priv{}, nil, svc); err != nil {
		t.Fatal(err)
	}
	if _, err := k.RegisterGate(k.Root, "svc", label.Public(), label.Priv{}, nil, svc); err == nil {
		t.Fatal("duplicate gate accepted")
	}
}

func TestCategoryAllocation(t *testing.T) {
	k := newTestKernel(Config{})
	a, b := k.NewCategory(), k.NewCategory()
	if a == b || a == 1 || b == 1 {
		t.Fatalf("categories %d, %d must be distinct and ≠ kernel's", a, b)
	}
}

func TestDecayRunsWhenEnabled(t *testing.T) {
	k := New(Config{Seed: 1, DecayHalfLife: core.DefaultHalfLife})
	res := k.CreateReserve(k.Root, "hoard", label.Public())
	if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), res, 10*units.Joule); err != nil {
		t.Fatal(err)
	}
	k.Run(10 * units.Minute)
	lvl, _ := res.Level(label.Priv{})
	want := 5 * units.Joule
	if lvl < want*99/100 || lvl > want*101/100 {
		t.Fatalf("after 10 min level = %v, want ≈5 J", lvl)
	}
}

func TestDefaultProfileIsDream(t *testing.T) {
	k := newTestKernel(Config{})
	if k.Profile.Name != power.Dream().Name {
		t.Fatalf("profile = %q", k.Profile.Name)
	}
	if lvl, _ := k.Battery().Level(k.KernelPriv()); lvl != power.Dream().BatteryCapacity {
		t.Fatalf("battery = %v", lvl)
	}
}

func TestMeterSeesBaseline(t *testing.T) {
	k := newTestKernel(Config{})
	m := k.NewMeter("agilent")
	k.Run(5 * units.Second)
	avg := units.Power(int64(m.Series().MeanOver(0, 5*units.Second+1)))
	want := units.Milliwatts(699)
	if avg < want*98/100 || avg > want*102/100 {
		t.Fatalf("meter mean = %v, want ≈699 mW", avg)
	}
}

func TestBatteryProtectedFromApplications(t *testing.T) {
	// Fig. 1: "the battery is protected from being misused by the web
	// browser" — application privileges cannot consume from it or tap
	// it directly.
	k := newTestKernel(Config{})
	var app label.Priv
	if err := k.Battery().Consume(app, units.Joule); !errors.Is(err, core.ErrAccess) {
		t.Fatalf("app consumed from battery: %v", err)
	}
	res := k.CreateReserve(k.Root, "r", label.Public())
	if _, err := k.CreateTap(k.Root, "steal", app, k.Battery(), res, label.Public()); !errors.Is(err, core.ErrAccess) {
		t.Fatalf("app tapped battery: %v", err)
	}
	// The kernel can.
	if _, err := k.CreateTap(k.Root, "ok", k.KernelPriv(), k.Battery(), res, label.Public()); err != nil {
		t.Fatalf("kernel tap failed: %v", err)
	}
}
