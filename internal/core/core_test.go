package core

import (
	"errors"
	"testing"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// testGraph builds a graph with an accessible battery for tests.
func testGraph(cfg Config) (*Graph, *kobj.Container) {
	tbl := kobj.NewTable()
	root := kobj.NewContainer(tbl, nil, label.Public())
	g := NewGraph(tbl, root, label.Public(), cfg)
	return g, root
}

var anyone label.Priv

func TestBatteryStartsFull(t *testing.T) {
	g, _ := testGraph(Config{BatteryCapacity: 15 * units.Kilojoule})
	lvl, err := g.Battery().Level(anyone)
	if err != nil {
		t.Fatal(err)
	}
	if lvl != 15*units.Kilojoule {
		t.Fatalf("battery = %v, want 15 kJ", lvl)
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation error %v at start", g.ConservationError())
	}
}

func TestDefaultConfig(t *testing.T) {
	g, _ := testGraph(Config{})
	if lvl, _ := g.Battery().Level(anyone); lvl != DefaultBatteryCapacity {
		t.Fatalf("default capacity = %v", lvl)
	}
	if g.HalfLife() != DefaultHalfLife {
		t.Fatalf("default half-life = %v", g.HalfLife())
	}
}

func TestConstTapFlowsExactRate(t *testing.T) {
	// Fig. 1: battery → 750 mW tap → browser reserve. After 10 s of
	// 10 ms batches the reserve must hold exactly 7.5 J.
	g, root := testGraph(Config{DecayHalfLife: -1})
	res := g.NewReserve(root, "browser", label.Public(), ReserveOpts{})
	tap, err := g.NewTap(root, "browser-tap", anyone, g.Battery(), res, label.Public())
	if err != nil {
		t.Fatal(err)
	}
	if err := tap.SetRate(anyone, units.Milliwatts(750)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		g.Flow(10 * units.Millisecond)
	}
	lvl, _ := res.Level(anyone)
	if lvl != units.Joules(7.5) {
		t.Fatalf("reserve = %v, want exactly 7.5 J", lvl)
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation error %v", g.ConservationError())
	}
}

func TestConstTapSubMicrojouleCarry(t *testing.T) {
	// A 1 µW tap moves less than 1 µJ per 10 ms batch; the carry must
	// make 1 s integrate to exactly 1 µJ.
	g, root := testGraph(Config{DecayHalfLife: -1})
	res := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	tap, _ := g.NewTap(root, "t", anyone, g.Battery(), res, label.Public())
	if err := tap.SetRate(anyone, units.Microwatt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		g.Flow(10 * units.Millisecond)
	}
	if lvl, _ := res.Level(anyone); lvl != 1*units.Microjoule {
		t.Fatalf("reserve = %v, want 1 µJ", lvl)
	}
}

func TestTapStarvation(t *testing.T) {
	// A tap whose source is empty moves nothing of what its rate entitles
	// it to.
	g, root := testGraph(Config{DecayHalfLife: -1})
	a := g.NewReserve(root, "a", label.Public(), ReserveOpts{})
	b := g.NewReserve(root, "b", label.Public(), ReserveOpts{})
	tap, _ := g.NewTap(root, "t", anyone, a, b, label.Public())
	if err := tap.SetRate(anyone, units.Watt); err != nil {
		t.Fatal(err)
	}
	g.Flow(units.Second)
	if lvl, _ := b.Level(anyone); lvl != 0 {
		t.Fatalf("sink got %v from empty source", lvl)
	}
	if short := units.Watt.Over(units.Second) - tap.Stats().Moved; short != units.Joule {
		t.Fatalf("shortfall = %v, want 1 J", short)
	}
	// Partially-filled source moves what it has.
	if err := g.Transfer(anyone, g.Battery(), a, 300*units.Millijoule); err != nil {
		t.Fatal(err)
	}
	g.Flow(units.Second)
	if lvl, _ := b.Level(anyone); lvl != 300*units.Millijoule {
		t.Fatalf("sink = %v, want 300 mJ", lvl)
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation error %v", g.ConservationError())
	}
}

func TestProportionalTapEquilibrium(t *testing.T) {
	// Fig. 6b: a plugin reserve fed by a 70 mW constant tap and drained
	// by a 0.1×/s backward proportional tap stabilizes at 700 mJ.
	g, root := testGraph(Config{DecayHalfLife: -1})
	plugin := g.NewReserve(root, "plugin", label.Public(), ReserveOpts{})
	fwd, _ := g.NewTap(root, "fwd", anyone, g.Battery(), plugin, label.Public())
	if err := fwd.SetRate(anyone, units.Milliwatts(70)); err != nil {
		t.Fatal(err)
	}
	back, _ := g.NewTap(root, "back", anyone, plugin, g.Battery(), label.Public())
	if err := back.SetFrac(anyone, 100_000); err != nil { // 0.1×/s
		t.Fatal(err)
	}
	// Run 120 s in 10 ms batches — far past the ~10 s time constant.
	for i := 0; i < 12000; i++ {
		g.Flow(10 * units.Millisecond)
	}
	lvl, _ := plugin.Level(anyone)
	want := 700 * units.Millijoule
	if lvl < want*99/100 || lvl > want*101/100 {
		t.Fatalf("equilibrium = %v, want ≈%v", lvl, want)
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation error %v", g.ConservationError())
	}
}

func TestConsume(t *testing.T) {
	g, root := testGraph(Config{DecayHalfLife: -1})
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	if err := g.Transfer(anyone, g.Battery(), r, units.Joule); err != nil {
		t.Fatal(err)
	}
	if err := r.Consume(anyone, 400*units.Millijoule); err != nil {
		t.Fatal(err)
	}
	if lvl, _ := r.Level(anyone); lvl != 600*units.Millijoule {
		t.Fatalf("level = %v, want 600 mJ", lvl)
	}
	// All-or-nothing: a too-large consume fails without side effects.
	err := r.Consume(anyone, units.Joule)
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	if lvl, _ := r.Level(anyone); lvl != 600*units.Millijoule {
		t.Fatalf("failed consume changed level to %v", lvl)
	}
	st, _ := r.Stats(anyone)
	if st.Consumed != 400*units.Millijoule {
		t.Fatalf("Consumed = %v", st.Consumed)
	}
	if g.Consumed() != 400*units.Millijoule {
		t.Fatalf("graph Consumed = %v", g.Consumed())
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation error %v", g.ConservationError())
	}
}

func TestDebitSelfIntoDebt(t *testing.T) {
	g, root := testGraph(Config{DecayHalfLife: -1})
	r := g.NewReserve(root, "netd-client", label.Public(), ReserveOpts{AllowDebt: true})
	if err := g.Transfer(anyone, g.Battery(), r, 100*units.Millijoule); err != nil {
		t.Fatal(err)
	}
	// Charge for incoming packets after the fact (§5.5.2).
	if err := r.DebitSelf(anyone, 250*units.Millijoule); err != nil {
		t.Fatal(err)
	}
	lvl, _ := r.Level(anyone)
	if lvl != -150*units.Millijoule {
		t.Fatalf("level = %v, want -150 mJ", lvl)
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation error %v", g.ConservationError())
	}

	// Non-debt reserves refuse.
	strict := g.NewReserve(root, "strict", label.Public(), ReserveOpts{})
	if err := strict.DebitSelf(anyone, units.Joule); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
}

func TestAccessControl(t *testing.T) {
	// §3.5: reserve use requires observe+modify; taps embed privileges.
	g, root := testGraph(Config{DecayHalfLife: -1})
	const cat label.Category = 5
	owner := label.NewPriv(cat)
	protected := label.Public().With(cat, label.Level2)

	r := g.NewReserve(root, "protected", protected, ReserveOpts{})
	if err := g.Transfer(owner, g.Battery(), r, units.Joule); err != nil {
		t.Fatal(err)
	}

	var stranger label.Priv
	if _, err := r.Level(stranger); !errors.Is(err, ErrAccess) {
		t.Fatalf("stranger observed protected reserve: %v", err)
	}
	if err := r.Consume(stranger, units.Millijoule); !errors.Is(err, ErrAccess) {
		t.Fatalf("stranger consumed from protected reserve: %v", err)
	}
	if err := r.Consume(owner, units.Millijoule); err != nil {
		t.Fatalf("owner blocked: %v", err)
	}

	// Tap creation requires use privileges on both endpoints.
	open := g.NewReserve(root, "open", label.Public(), ReserveOpts{})
	if _, err := g.NewTap(root, "t", stranger, r, open, label.Public()); !errors.Is(err, ErrAccess) {
		t.Fatalf("stranger created tap from protected source: %v", err)
	}
	if _, err := g.NewTap(root, "t", owner, r, open, label.Public()); err != nil {
		t.Fatalf("owner tap creation failed: %v", err)
	}

	// Transfers check both ends.
	if err := g.Transfer(stranger, open, r, 0); !errors.Is(err, ErrAccess) {
		t.Fatalf("stranger transfer to protected sink: %v", err)
	}
}

func TestSetRateRequiresModify(t *testing.T) {
	// §5.4: the task manager creates the foreground tap with a label only
	// it can modify, so applications cannot raise their own rate.
	g, root := testGraph(Config{DecayHalfLife: -1})
	const tm label.Category = 9
	taskmgr := label.NewPriv(tm)
	app := g.NewReserve(root, "app", label.Public(), ReserveOpts{})
	tapLabel := label.Public().With(tm, label.Level2)
	tap, err := g.NewTap(root, "fg", taskmgr, g.Battery(), app, tapLabel)
	if err != nil {
		t.Fatal(err)
	}
	var appPriv label.Priv
	if err := tap.SetRate(appPriv, units.Watt); !errors.Is(err, ErrAccess) {
		t.Fatalf("app raised its own foreground tap: %v", err)
	}
	if err := tap.SetRate(taskmgr, units.Milliwatts(137)); err != nil {
		t.Fatalf("task manager blocked: %v", err)
	}
	if tap.Rate() != units.Milliwatts(137) {
		t.Fatalf("rate = %v", tap.Rate())
	}
}

func TestDecayHalfLife(t *testing.T) {
	// §5.2.2: 50 % leaks after 10 minutes. Drive 10 min of 1 s decay
	// steps and check within 0.1 %.
	g, root := testGraph(Config{})
	r := g.NewReserve(root, "hoard", label.Public(), ReserveOpts{})
	if err := g.Transfer(anyone, g.Battery(), r, 10*units.Joule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		g.Decay(units.Second)
	}
	lvl, _ := r.Level(anyone)
	want := 5 * units.Joule
	if lvl < want*999/1000 || lvl > want*1001/1000 {
		t.Fatalf("after one half-life level = %v, want ≈%v", lvl, want)
	}
	st, _ := r.Stats(anyone)
	if st.Decayed != 10*units.Joule-lvl {
		t.Fatalf("Decayed = %v, want %v", st.Decayed, 10*units.Joule-lvl)
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation error %v", g.ConservationError())
	}
}

func TestDecayExempt(t *testing.T) {
	// §5.5.2: the netd reserve is not subject to the global half-life.
	g, root := testGraph(Config{})
	pool := g.NewReserve(root, "netd", label.Public(), ReserveOpts{DecayExempt: true})
	if err := g.Transfer(anyone, g.Battery(), pool, 10*units.Joule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		g.Decay(units.Second)
	}
	if lvl, _ := pool.Level(anyone); lvl != 10*units.Joule {
		t.Fatalf("exempt reserve decayed to %v", lvl)
	}
}

func TestDecayDisabled(t *testing.T) {
	g, root := testGraph(Config{DecayHalfLife: -1})
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	if err := g.Transfer(anyone, g.Battery(), r, units.Joule); err != nil {
		t.Fatal(err)
	}
	g.Decay(units.Hour)
	if lvl, _ := r.Level(anyone); lvl != units.Joule {
		t.Fatalf("decay ran while disabled: %v", lvl)
	}
}

func TestDecayIntervalIndependence(t *testing.T) {
	// Decaying in 100 ms steps and 1 s steps must agree closely.
	run := func(step units.Time) units.Energy {
		g, root := testGraph(Config{})
		r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
		if err := g.Transfer(anyone, g.Battery(), r, 10*units.Joule); err != nil {
			t.Fatal(err)
		}
		for elapsed := units.Time(0); elapsed < 5*units.Minute; elapsed += step {
			g.Decay(step)
		}
		lvl, _ := r.Level(anyone)
		return lvl
	}
	a, b := run(100*units.Millisecond), run(units.Second)
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > 10*units.Millijoule { // 0.1 % of 10 J
		t.Fatalf("step dependence: 100ms→%v vs 1s→%v", a, b)
	}
}

func TestDeleteReserveReturnsEnergy(t *testing.T) {
	g, root := testGraph(Config{DecayHalfLife: -1})
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	if err := g.Transfer(anyone, g.Battery(), r, units.Joule); err != nil {
		t.Fatal(err)
	}
	before, _ := g.Battery().Level(anyone)
	if err := g.table.Delete(r.ObjectID()); err != nil {
		t.Fatal(err)
	}
	after, _ := g.Battery().Level(anyone)
	if after-before != units.Joule {
		t.Fatalf("battery gained %v, want 1 J back", after-before)
	}
	if !r.Dead() {
		t.Fatal("reserve not marked dead")
	}
	if g.ConservationError() != 0 {
		t.Fatalf("conservation error %v", g.ConservationError())
	}
}

func TestDeadTapStopsFlowing(t *testing.T) {
	// §5.2: garbage-collected taps are "effectively revoking those power
	// sources".
	g, root := testGraph(Config{DecayHalfLife: -1})
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	tap, _ := g.NewTap(root, "t", anyone, g.Battery(), r, label.Public())
	if err := tap.SetRate(anyone, units.Watt); err != nil {
		t.Fatal(err)
	}
	g.Flow(units.Second)
	if err := g.table.Delete(tap.ObjectID()); err != nil {
		t.Fatal(err)
	}
	g.Flow(units.Second)
	if lvl, _ := r.Level(anyone); lvl != units.Joule {
		t.Fatalf("level = %v after tap deletion, want 1 J", lvl)
	}
	if !tap.dead {
		t.Fatal("tap not marked dead")
	}
}

func TestDeleteContainerRevokesTaps(t *testing.T) {
	// §5.2: per-page taps are deleted when the page's container goes.
	g, root := testGraph(Config{DecayHalfLife: -1})
	page := kobj.NewContainer(g.table, root, label.Public())
	plugin := g.NewReserve(root, "plugin", label.Public(), ReserveOpts{})
	tap, _ := g.NewTap(page, "page-tap", anyone, g.Battery(), plugin, label.Public())
	if err := tap.SetRate(anyone, units.Milliwatts(10)); err != nil {
		t.Fatal(err)
	}
	g.Flow(units.Second)
	lvlBefore, _ := plugin.Level(anyone)
	if lvlBefore != 10*units.Millijoule {
		t.Fatalf("level = %v", lvlBefore)
	}
	if err := g.table.Delete(page.ObjectID()); err != nil {
		t.Fatal(err)
	}
	g.Flow(units.Second)
	if lvl, _ := plugin.Level(anyone); lvl != lvlBefore {
		t.Fatalf("revoked tap still flowed: %v", lvl)
	}
}

func TestTransferUpTo(t *testing.T) {
	g, root := testGraph(Config{DecayHalfLife: -1})
	a := g.NewReserve(root, "a", label.Public(), ReserveOpts{})
	b := g.NewReserve(root, "b", label.Public(), ReserveOpts{})
	if err := g.Transfer(anyone, g.Battery(), a, 300*units.Millijoule); err != nil {
		t.Fatal(err)
	}
	moved, err := g.TransferUpTo(anyone, a, b, units.Joule)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 300*units.Millijoule {
		t.Fatalf("moved = %v, want 300 mJ", moved)
	}
	moved, err = g.TransferUpTo(anyone, a, b, units.Joule)
	if err != nil || moved != 0 {
		t.Fatalf("second sweep moved %v, err %v", moved, err)
	}
}

func TestTapSelfLoopRejected(t *testing.T) {
	g, root := testGraph(Config{DecayHalfLife: -1})
	r := g.NewReserve(root, "r", label.Public(), ReserveOpts{})
	if _, err := g.NewTap(root, "loop", anyone, r, r, label.Public()); err == nil {
		t.Fatal("self-loop tap accepted")
	}
}

func TestStrictHoardingBlocksEvasion(t *testing.T) {
	// §5.2.2: with the fundamental rule enabled, moving energy from a
	// taxed reserve to an untaxed one is rejected.
	g, root := testGraph(Config{DecayHalfLife: -1, StrictHoarding: true})
	const browser label.Category = 4
	browserPriv := label.NewPriv(browser)
	taxed := g.NewReserve(root, "plugin", label.Public(), ReserveOpts{})
	stash := g.NewReserve(root, "stash", label.Public(), ReserveOpts{})
	if err := g.Transfer(browserPriv, g.Battery(), taxed, units.Joule); err != nil {
		t.Fatal(err)
	}
	// Browser installs a backward tap the plugin cannot modify.
	backLabel := label.Public().With(browser, label.Level2)
	back, err := g.NewTap(root, "tax", browserPriv, taxed, g.Battery(), backLabel)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.SetFrac(browserPriv, 100_000); err != nil {
		t.Fatal(err)
	}

	var plugin label.Priv
	err = g.Transfer(plugin, taxed, stash, 500*units.Millijoule)
	if !errors.Is(err, ErrHoarding) {
		t.Fatalf("evasive transfer err = %v, want ErrHoarding", err)
	}
	// The browser itself may move the energy: it can modify the tax tap.
	if err := g.Transfer(browserPriv, taxed, stash, 500*units.Millijoule); err != nil {
		t.Fatalf("browser transfer blocked: %v", err)
	}
}
