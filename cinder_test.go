package cinder

import (
	"strings"
	"testing"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Kernel == nil || sys.Radio == nil {
		t.Fatal("system incompletely assembled")
	}
	lvl, err := sys.Battery().Level(sys.Kernel.KernelPriv())
	if err != nil {
		t.Fatal(err)
	}
	if lvl != DreamProfile().BatteryCapacity {
		t.Fatalf("battery = %v", lvl)
	}
	sys.Run(Second)
	if now := sys.Kernel.Now(); now != Second {
		t.Fatalf("Now = %v", now)
	}
	if sys.Consumed() <= 0 {
		t.Fatal("idle baseline not billed")
	}
}

func TestFacadeQuickstartFlow(t *testing.T) {
	// The README quickstart, as a test.
	sys, err := NewSystem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := sys.Kernel
	reserve, tap, err := k.Wrap(k.Root, "sandbox", k.KernelPriv(),
		sys.Battery(), Milliwatts(1), PublicLabel())
	if err != nil {
		t.Fatal(err)
	}
	_, th := k.Spawn(k.Root, "hog", NoPrivileges(), nil, reserve)
	sys.Run(30 * Second)
	budget := Milliwatts(1).Over(30 * Second)
	if th.CPUConsumed() > budget {
		t.Fatalf("hog consumed %v, budget %v", th.CPUConsumed(), budget)
	}
	if th.CPUConsumed() < budget/2 {
		t.Fatalf("hog consumed %v, far below budget %v", th.CPUConsumed(), budget)
	}
	if tap.Rate() != Milliwatts(1) {
		t.Fatalf("tap rate %v", tap.Rate())
	}
}

func TestFacadeUnitHelpers(t *testing.T) {
	if Joules(9.5) != 9_500*Millijoule {
		t.Fatal("Joules broken")
	}
	if Milliwatts(1000) != Watt {
		t.Fatal("Milliwatts broken")
	}
	if Seconds(2) != 2*Second {
		t.Fatal("Seconds broken")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	names := Experiments()
	if len(names) < 9 {
		t.Fatalf("experiments = %v", names)
	}
	r, err := RunExperiment("fig9")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Fatalf("fig9 failed:\n%s", r.Format(false))
	}
	if _, err := RunExperiment("bogus"); err == nil {
		t.Fatal("bogus experiment accepted")
	}
}

func TestFacadeBrowserAndTaskManager(t *testing.T) {
	sys, err := NewSystem(Options{DisableDecay: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.NewBrowser(sys.Kernel.KernelPriv(), BrowserConfig{
		Rate:       Milliwatts(690),
		PluginRate: Milliwatts(70),
	})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := sys.NewTaskManager(sys.Kernel.KernelPriv(), TaskManagerCfg{
		ForegroundRate: Milliwatts(137),
		BackgroundRate: Milliwatts(14),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Manage("bg", Milliwatts(7)); err != nil {
		t.Fatal(err)
	}
	sys.Run(5 * Second)
	if b.Thread.CPUConsumed() == 0 {
		t.Fatal("browser never ran")
	}
	if sys.Kernel.Graph.ConservationError() != 0 {
		t.Fatalf("conservation error %v", sys.Kernel.Graph.ConservationError())
	}
}

func TestFacadeCooperativeToggle(t *testing.T) {
	coop := false
	sys, err := NewSystem(Options{CooperativeNetd: &coop})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.NewPoller("rss", sys.Kernel.KernelPriv(), PollerConfig{
		Interval: 30 * Second, Phase: Second,
		Rate: Milliwatts(99), ReqBytes: 100, RespBytes: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(40 * Second)
	if p.Completed == 0 {
		t.Fatal("uncooperative poll never completed")
	}
}

func TestResultFormatIncludesChecks(t *testing.T) {
	r, err := RunExperiment("gallery")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Format(false), "paper-vs-measured") {
		t.Fatal("Format missing checks section")
	}
}
