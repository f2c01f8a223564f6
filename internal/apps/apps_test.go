package apps

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

func newK(t *testing.T) *kernel.Kernel {
	t.Helper()
	return kernel.New(kernel.Config{Seed: 3, DecayHalfLife: -1})
}

func TestSpinnerRunsAtTapRate(t *testing.T) {
	k := newK(t)
	s, err := NewSpinner(k, k.Root, "s", k.KernelPriv(), k.Battery(),
		units.Microwatt*68500, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	k.Run(10 * units.Second)
	// 68.5 mW for 10 s ≈ 685 mJ of CPU.
	got := s.CPUConsumed()
	want := units.Energy(685_000)
	if got < want*95/100 || got > want*105/100 {
		t.Fatalf("CPU consumed %v, want ≈%v", got, want)
	}
}

func TestForkerSubdivision(t *testing.T) {
	// Fig. 9: B forks B1 and B2 with quarter-rate taps from its own
	// reserve; B's effective share halves and the children run at a
	// quarter each. A (not built here) is isolated — covered by the
	// scheduler test and the Fig. 9 experiment.
	k := newK(t)
	b, err := NewForker(k, k.Root, "B", k.KernelPriv(), k.Battery(), units.Microwatt*68500)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(5 * units.Second)
	before := b.CPUConsumed()
	b1, err := b.ForkChild("B1", units.Microwatt*17125)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := b.ForkChild("B2", units.Microwatt*17125)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(10 * units.Second)
	bDelta := b.CPUConsumed() - before
	// B keeps ≈ 68.5 − 2×17.125 = 34.25 mW over the next 10 s.
	wantB := units.Energy(342_500)
	if bDelta < wantB*90/100 || bDelta > wantB*110/100 {
		t.Fatalf("B consumed %v after forks, want ≈%v", bDelta, wantB)
	}
	for i, c := range []*Spinner{b1, b2} {
		got := c.CPUConsumed()
		want := units.Energy(171_250)
		if got < want*85/100 || got > want*115/100 {
			t.Fatalf("B%d consumed %v, want ≈%v", i+1, got, want)
		}
	}
	if k.Graph.ConservationError() != 0 {
		t.Fatalf("conservation error %v", k.Graph.ConservationError())
	}
}

func TestEnergyWrapConfinesWorkload(t *testing.T) {
	k := newK(t)
	cat := k.NewCategory()
	wrapperPriv := k.KernelPriv().Union(label.NewPriv(cat))
	tapLbl := label.Public().With(cat, label.Level2)
	w, err := EnergyWrap(k, k.Root, "sandboxed", wrapperPriv, k.Battery(),
		units.Milliwatt, tapLbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(10 * units.Second)
	got, err := w.Consumed()
	if err != nil {
		t.Fatal(err)
	}
	if got > 10*units.Millijoule {
		t.Fatalf("sandboxed workload consumed %v, above 1 mW budget", got)
	}
	taps := k.Graph.TapsInto(w.Reserve, nil)
	if len(taps) != 1 {
		t.Fatalf("%d taps feed the sandbox, want 1", len(taps))
	}
	// The workload itself cannot raise its rate.
	if err := taps[0].SetRate(label.Priv{}, units.Watt); err == nil {
		t.Fatal("sandboxed workload raised its own rate")
	}
	// The wrapper can.
	if err := taps[0].SetRate(wrapperPriv, 2*units.Milliwatt); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyWrapNesting(t *testing.T) {
	// §5.1: "it is possible to use energywrap to wrap itself": the inner
	// sandbox draws from the outer sandbox's reserve and can never
	// exceed the outer limit.
	k := newK(t)
	outer, err := EnergyWrap(k, k.Root, "outer", k.KernelPriv(), k.Battery(),
		10*units.Milliwatt, label.Public(), nil)
	if err != nil {
		t.Fatal(err)
	}
	outer.Thread.Exit() // outer acts as a pure budget envelope here
	inner, err := EnergyWrap(k, k.Root, "inner", label.Priv{}, outer.Reserve,
		units.Watt /* asks for far more than outer provides */, label.Public(), nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(10 * units.Second)
	got, err := inner.Consumed()
	if err != nil {
		t.Fatal(err)
	}
	// Inner's 1 W tap starves at outer's 10 mW inflow.
	max := 10 * units.Milliwatt.Over(10*units.Second) * 11 / 10
	if got > max {
		t.Fatalf("inner consumed %v, outer envelope is 10 mW (%v max)", got, max)
	}
}

func TestEnergyWrapKillReturnsEnergy(t *testing.T) {
	k := newK(t)
	box := kobj.NewContainer(k.Table, k.Root, label.Public())
	w, err := EnergyWrap(k, box, "w", k.KernelPriv(), k.Battery(),
		100*units.Milliwatt, label.Public(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tap := k.Graph.TapsInto(w.Reserve, nil)[0]
	w.Thread.Exit() // let the reserve accumulate
	k.Run(5 * units.Second)
	// Deleting the container holding the sandbox tears down the thread,
	// reserve and tap; the reserve's residual energy returns to the
	// battery.
	if err := k.Table.Delete(box.ObjectID()); err != nil {
		t.Fatal(err)
	}
	if !w.Reserve.Dead() || !errors.Is(tap.SetRate(k.KernelPriv(), 0), core.ErrDead) {
		t.Fatal("kill did not tear down sandbox objects")
	}
	if k.Graph.ConservationError() != 0 {
		t.Fatalf("conservation error %v", k.Graph.ConservationError())
	}
}

func TestBrowserPluginIsolation(t *testing.T) {
	// Fig. 6a: the plugin cannot starve the browser — its draw is capped
	// by the 70 mW tap regardless of demand.
	k := newK(t)
	b, err := NewBrowser(k, k.Root, k.KernelPriv(), k.Battery(), BrowserConfig{
		Rate:       units.Milliwatts(690),
		PluginRate: units.Milliwatts(70),
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(20 * units.Second)
	pluginCPU := b.Plugin.Thread.CPUConsumed()
	maxPlugin := units.Milliwatts(70).Over(20*units.Second) * 105 / 100
	if pluginCPU > maxPlugin {
		t.Fatalf("plugin consumed %v, cap is 70 mW (%v)", pluginCPU, maxPlugin)
	}
	browserCPU := b.Thread.CPUConsumed()
	// Browser receives 690−70 = 620 mW of inflow, far above the 137 mW
	// CPU: it must run essentially full tilt (minus the plugin's share
	// of the single CPU).
	if browserCPU < units.Milliwatts(137).Over(20*units.Second)/2 {
		t.Fatalf("browser starved: %v", browserCPU)
	}
	// The plugin cannot raise its own tap.
	if err := b.Plugin.Tap.SetRate(label.Priv{}, units.Watt); err == nil {
		t.Fatal("plugin raised its own tap")
	}
}

func TestBrowserExtensionUnresponsiveWithoutEnergy(t *testing.T) {
	k := newK(t)
	b, err := NewBrowser(k, k.Root, k.KernelPriv(), k.Battery(), BrowserConfig{
		Rate:       units.Milliwatts(690),
		PluginRate: units.Milliwatt, // starved plugin
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Plugin.Thread.Exit() // plugin idles; only explicit requests draw
	k.Run(units.Second)
	// First request affordable (≈1 mJ accumulated), then drained.
	if !b.AskExtension(500 * units.Microjoule) {
		t.Fatal("first extension request failed")
	}
	for i := 0; i < 5; i++ {
		b.AskExtension(10 * units.Millijoule)
	}
	if b.Plugin.Unresponsive == 0 {
		t.Fatal("starved plugin never reported unresponsive")
	}
}

func TestBrowserPageTapsScaleAndRevoke(t *testing.T) {
	// §5.2: a tap per page scales plugin power with pages served;
	// closing the page revokes the tap via container GC.
	k := newK(t)
	b, err := NewBrowser(k, k.Root, k.KernelPriv(), k.Battery(), BrowserConfig{
		Rate:       units.Milliwatts(690),
		PluginRate: units.Milliwatts(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Plugin.Thread.Exit() // measure inflow, not consumption
	if err := b.OpenPage("news", units.Milliwatts(20)); err != nil {
		t.Fatal(err)
	}
	if err := b.OpenPage("video", units.Milliwatts(30)); err != nil {
		t.Fatal(err)
	}
	k.Run(10 * units.Second)
	st, _ := b.Plugin.Reserve.Stats(label.Priv{})
	inflowWithPages := st.In
	// 10+20+30 = 60 mW for 10 s = 600 mJ.
	want := units.Milliwatts(60).Over(10 * units.Second)
	if inflowWithPages < want*95/100 || inflowWithPages > want*105/100 {
		t.Fatalf("plugin inflow %v, want ≈%v", inflowWithPages, want)
	}
	if err := b.ClosePage("video"); err != nil {
		t.Fatal(err)
	}
	if b.OpenPages() != 1 {
		t.Fatalf("open pages = %d", b.OpenPages())
	}
	k.Run(10 * units.Second)
	st2, _ := b.Plugin.Reserve.Stats(label.Priv{})
	delta := st2.In - inflowWithPages
	want2 := units.Milliwatts(30).Over(10 * units.Second) // 10+20 remaining
	if delta < want2*95/100 || delta > want2*105/100 {
		t.Fatalf("post-close inflow %v, want ≈%v", delta, want2)
	}
}

func TestBrowserReclamationCapsIdleReserve(t *testing.T) {
	// Fig. 6b: with backward proportional taps an idle plugin's reserve
	// converges to rate/frac = 70 mW / 0.1×/s = 700 mJ instead of
	// growing without bound.
	k := newK(t)
	b, err := NewBrowser(k, k.Root, k.KernelPriv(), k.Battery(), BrowserConfig{
		Rate:       units.Milliwatts(690),
		PluginRate: units.Milliwatts(70),
		Reclaim:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Plugin.Thread.Exit()
	b.Thread.Exit()
	k.Run(2 * units.Minute)
	lvl, _ := b.Plugin.Reserve.Level(label.Priv{})
	want := 700 * units.Millijoule
	if lvl < want*90/100 || lvl > want*110/100 {
		t.Fatalf("plugin reserve = %v, want ≈700 mJ equilibrium", lvl)
	}

	// Without reclamation the same idle plugin hoards far more.
	k2 := newK(t)
	b2, err := NewBrowser(k2, k2.Root, k2.KernelPriv(), k2.Battery(), BrowserConfig{
		Rate:       units.Milliwatts(690),
		PluginRate: units.Milliwatts(70),
	})
	if err != nil {
		t.Fatal(err)
	}
	b2.Plugin.Thread.Exit()
	b2.Thread.Exit()
	k2.Run(2 * units.Minute)
	lvl2, _ := b2.Plugin.Reserve.Level(label.Priv{})
	if lvl2 < 4*units.Joule {
		t.Fatalf("unreclaimed plugin reserve = %v, want ≈8.4 J hoard", lvl2)
	}
}

func TestTaskManagerForegroundSwitch(t *testing.T) {
	// Fig. 12a at small scale: background pair shares 14 mW; the
	// foregrounded app gets the full 137 mW.
	k := newK(t)
	tm, err := NewTaskManager(k, k.Root, k.KernelPriv(), k.Battery(), TaskManagerConfig{
		ForegroundRate: units.Milliwatts(137),
		BackgroundRate: units.Milliwatts(14),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := tm.Manage("A", units.Milliwatts(7))
	if err != nil {
		t.Fatal(err)
	}
	bApp, err := tm.Manage("B", units.Milliwatts(7))
	if err != nil {
		t.Fatal(err)
	}
	k.Run(10 * units.Second)
	// Background phase: each ≈7 mW.
	for name, app := range map[string]*ManagedApp{"A": a, "B": bApp} {
		got := app.CPUConsumed()
		want := units.Milliwatts(7).Over(10 * units.Second)
		if got < want*80/100 || got > want*120/100 {
			t.Fatalf("%s bg consumed %v, want ≈%v", name, got, want)
		}
	}
	if err := tm.SetForeground("A"); err != nil {
		t.Fatal(err)
	}
	aBefore, bBefore := a.CPUConsumed(), bApp.CPUConsumed()
	k.Run(10 * units.Second)
	aDelta := a.CPUConsumed() - aBefore
	bDelta := bApp.CPUConsumed() - bBefore
	wantA := units.Milliwatts(137 + 7).Over(10 * units.Second)
	if aDelta < wantA*90/100 || aDelta > wantA*110/100 {
		t.Fatalf("A fg consumed %v, want ≈%v", aDelta, wantA)
	}
	wantB := units.Milliwatts(7).Over(10 * units.Second)
	if bDelta > wantB*120/100 {
		t.Fatalf("B consumed %v while A foregrounded, want ≤%v", bDelta, wantB)
	}
	// Applications cannot open their own foreground tap.
	if err := a.fgTap.SetRate(label.Priv{}, units.Watt); err == nil {
		t.Fatal("app modified its foreground tap")
	}
}

func TestTaskManagerUnknownApp(t *testing.T) {
	k := newK(t)
	tm, err := NewTaskManager(k, k.Root, k.KernelPriv(), k.Battery(), TaskManagerConfig{
		ForegroundRate: units.Milliwatts(137),
		BackgroundRate: units.Milliwatts(14),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.SetForeground("ghost"); err == nil {
		t.Fatal("foregrounding unknown app succeeded")
	}
	if err := tm.SetForeground(""); err != nil {
		t.Fatalf("clearing foreground: %v", err)
	}
}

func TestViewerAdaptiveFasterThanFixed(t *testing.T) {
	// §6.2 headline: the adaptive viewer finishes ≈5× sooner. A scaled-
	// down run (3 batches) keeps the test quick while preserving the
	// ratio's direction and magnitude.
	run := func(adaptive bool) *ImageViewer {
		k := newK(t)
		cfg := DefaultViewerConfig(adaptive)
		cfg.Batches = 3
		v, err := NewImageViewer(k, k.Root, k.KernelPriv(), k.Battery(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Prime the reserve as the paper does (viewing starts with some
		// accumulated energy).
		if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), v.Downloader, 200*units.Millijoule); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 240 && v.FinishedAt == 0; i++ {
			k.Run(10 * units.Second)
		}
		if v.FinishedAt == 0 {
			t.Fatalf("viewer (adaptive=%v) never finished", adaptive)
		}
		return v
	}
	fixed := run(false)
	adaptive := run(true)
	if adaptive.FinishedAt*3 > fixed.FinishedAt {
		t.Fatalf("adaptive %v vs fixed %v: want ≥3× speedup",
			adaptive.FinishedAt, fixed.FinishedAt)
	}
	// Adaptive transfers fewer bytes.
	if adaptive.TotalBytes() >= fixed.TotalBytes() {
		t.Fatalf("adaptive bytes %d ≥ fixed bytes %d",
			adaptive.TotalBytes(), fixed.TotalBytes())
	}
	// Fixed-quality images are all full size.
	for _, im := range fixed.Images {
		if im.QualityPct != 100 {
			t.Fatalf("fixed-quality image at %d%%", im.QualityPct)
		}
	}
	// The fixed viewer stalls; the adaptive one shouldn't (much).
	if fixed.StalledTime == 0 {
		t.Fatal("fixed viewer never stalled — parameters too generous")
	}
	if adaptive.StalledTime > fixed.StalledTime/4 {
		t.Fatalf("adaptive stalled %v vs fixed %v", adaptive.StalledTime, fixed.StalledTime)
	}
}

func TestViewerReserveNeverZeroWhenAdaptive(t *testing.T) {
	// Fig. 11: "the level of energy present in the reserve dropped below
	// the threshold, but never to zero".
	k := newK(t)
	cfg := DefaultViewerConfig(true)
	cfg.Batches = 4
	v, err := NewImageViewer(k, k.Root, k.KernelPriv(), k.Battery(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), v.Downloader, 200*units.Millijoule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120 && v.FinishedAt == 0; i++ {
		k.Run(10 * units.Second)
	}
	if v.FinishedAt == 0 {
		t.Fatal("viewer never finished")
	}
	for _, p := range v.LevelTrace.Points() {
		if p.V == 0 {
			t.Fatalf("adaptive reserve hit zero at %v", p.T)
		}
	}
}

func TestPollerPollsOnSchedule(t *testing.T) {
	// Covered end-to-end in netd tests; here: phase + interval timing
	// against an uncooperative netd (no blocking).
	k := newK(t)
	r := newRadio(t, k)
	n := newNetd(t, k, r, false)
	_ = n
	p, err := NewPoller(k, k.Root, "rss", k.KernelPriv(), k.Battery(), PollerConfig{
		Interval:  30 * units.Second,
		Phase:     units.Second,
		Rate:      units.Milliwatts(99),
		ReqBytes:  100,
		RespBytes: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(2 * units.Minute)
	if p.Completed < 3 || p.Completed > 5 {
		t.Fatalf("polls completed = %d, want ≈4", p.Completed)
	}
	if len(p.CompletedAt) != p.Completed {
		t.Fatal("completion times out of sync")
	}
}
