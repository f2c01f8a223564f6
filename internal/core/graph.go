package core

import (
	"fmt"
	"math"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// DefaultHalfLife is the paper's default global decay: reserves leak 50 %
// of their content back to the battery every 10 minutes (§5.2.2).
const DefaultHalfLife = 10 * units.Minute

// DefaultBatteryCapacity matches the 15 kJ battery used in the paper's
// running example (Fig. 1).
const DefaultBatteryCapacity = 15 * units.Kilojoule

// Config parameterizes a Graph.
type Config struct {
	// BatteryCapacity is the root reserve's initial level. Defaults to
	// DefaultBatteryCapacity.
	BatteryCapacity units.Energy
	// DecayHalfLife is the global hoarding-prevention half-life; zero
	// selects DefaultHalfLife. Set Negative to disable decay entirely
	// (used by ablation benchmarks).
	DecayHalfLife units.Time
	// StrictHoarding enables the "more fundamental" anti-hoarding rule
	// the paper sketches instead of relying on decay alone (§5.2.2):
	// transfers from a reserve with backward proportional taps to one
	// with strictly weaker backward taps are rejected unless the caller
	// can modify every such tap.
	StrictHoarding bool
}

// Graph is the resource consumption graph (§3.4): a set of reserves
// rooted at the battery, connected by taps. The kernel owns one Graph
// and drives Flow and Decay from its clock.
type Graph struct {
	table    *kobj.Table
	battery  *Reserve
	reserves []*Reserve
	taps     []*Tap
	// active holds the taps with a non-zero rate or fraction, in
	// creation order — the only taps Flow needs to visit. Zero-rate taps
	// move nothing (their carries stay below one microjoule), so
	// skipping them is exact.
	active []*Tap
	// decayable holds the non-decay-exempt reserves in creation order —
	// the only reserves Decay needs to visit.
	decayable []*Reserve
	// onTapActivity, when set, is invoked when a tap acquires a non-zero
	// rate. The kernel hooks it to resume a deferred flow batch task.
	onTapActivity func()
	// onDecayActivity, when set, is invoked when a decayable reserve is
	// created. The kernel hooks it to end its deferrals' predictions
	// and, where the decay task bites on its own (the reference), to
	// resume that task, which parks while no decayable reserve exists
	// and Decay is a no-op.
	onDecayActivity func()
	// flowScratch is Flow's reusable snapshot buffer, so a tap released
	// or zeroed mid-batch cannot shift later taps out of the batch.
	flowScratch []*Tap
	// flowHook, when set, runs before each tap of a flow batch. It is a
	// test seam for exercising mid-batch mutations of the active set.
	flowHook func(*Tap)
	tapSeq   uint64
	consumed units.Energy
	capacity units.Energy
	// recharged accumulates external energy credited into the battery
	// by a charger (ChargeBattery). It is the one inflow that is not a
	// redistribution of the initial capacity, so conservation becomes
	// TotalHeld + Consumed − Capacity − Recharged == 0.
	recharged units.Energy
	halfLife  units.Time
	strict    bool
	// Settlement state (settle.go): per-plan epoch, reusable partition
	// and replay buffers, and the walk/settled counters surfaced in
	// fleet reports.
	settleEpoch     uint64
	settleTelescope []*Tap
	settleReplay    []replayTap
	settleSens      []*Reserve
	settleLevels    []units.Energy
	settleSrcs      []*Reserve
	settleBiters    []*Reserve
	flowWalks       int64
	settledBatches  int64
	// memo caches replayed chunks' results (memo.go); nil until the
	// graph's first replay.
	memo *replayMemo
	// decayFactor is the per-Decay-interval retention in 2⁻³⁰ fixed
	// point, memoized per interval length.
	decayFactorDT units.Time
	decayFactor   int64
}

// SetTapActivityHook installs fn to be called whenever a tap becomes
// active (acquires a non-zero rate or fraction). Pass nil to remove.
func (g *Graph) SetTapActivityHook(fn func()) { g.onTapActivity = fn }

// SetDecayActivityHook installs fn to be called whenever a decayable
// reserve is created. Pass nil to remove.
func (g *Graph) SetDecayActivityHook(fn func()) { g.onDecayActivity = fn }

// DecayableCount returns the number of live reserves subject to the
// global half-life. While it is zero, Decay is a no-op by construction.
func (g *Graph) DecayableCount() int { return len(g.decayable) }

// DrainBound bounds the power the active taps can draw from r while
// no inflow raises its level: a constant tap at its rate and a
// proportional tap at its draw for r's current level, rounded up. A
// proportional draw only falls as r drains, and over any span each
// tap's telescoped transfer exceeds rate × span by less than 1 µJ.
func (g *Graph) DrainBound(r *Reserve) units.Power {
	var p units.Power
	for _, t := range g.active {
		switch {
		case t.src != r:
		case t.kind == TapConst:
			p += t.rate
		case r.level > 0:
			p += units.Power((int64(r.level)*int64(t.frac) + 999_999) / 1_000_000)
		}
	}
	return p
}

// notifyTapActivity fires the tap-activity hook if one is installed.
// Beyond activation, it also runs for rate changes on already-active taps,
// for deactivations (releaseReserve, SetRate(0)), and for direct
// reserve-to-reserve transfers: the kernel's hook is an idempotent
// resume, and closed-form predictions (sweep settlement, throttled
// scheduler skips) must drop on any change to a reserve's inflow that
// the flow machinery itself did not produce.
func (g *Graph) notifyTapActivity() {
	if g.onTapActivity != nil {
		g.onTapActivity()
	}
}

// setTapActive inserts or removes t from the active set, keeping it
// sorted by creation order so Flow preserves the original iteration
// sequence exactly.
func (g *Graph) setTapActive(t *Tap, active bool) {
	if active == (t.activeIdx >= 0) {
		return
	}
	if !active {
		i := t.activeIdx
		copy(g.active[i:], g.active[i+1:])
		g.active = g.active[:len(g.active)-1]
		for ; i < len(g.active); i++ {
			g.active[i].activeIdx = i
		}
		t.activeIdx = -1
		return
	}
	i := len(g.active)
	for i > 0 && g.active[i-1].seq > t.seq {
		i--
	}
	g.active = append(g.active, nil)
	copy(g.active[i+1:], g.active[i:])
	g.active[i] = t
	for ; i < len(g.active); i++ {
		g.active[i].activeIdx = i
	}
	if g.onTapActivity != nil {
		g.onTapActivity()
	}
}

// NewGraph creates a resource graph whose root battery reserve lives in
// the given container. The battery is decay-exempt (decay returns energy
// *to* it) and carries the given label; typically only the kernel owns
// its elevated category.
func NewGraph(t *kobj.Table, root *kobj.Container, batteryLabel label.Label, cfg Config) *Graph {
	g := &Graph{}
	g.Reset(t, root, batteryLabel, cfg)
	return g
}

// Reset reinitializes the graph in place to the exact state NewGraph
// would produce, reusing every backing array already allocated. The
// fleet runner recycles one Graph per worker this way instead of
// constructing 100k fresh ones; all reserves and taps of the previous
// life are forgotten (their owners must be discarded too — the kernel's
// Reset drops the whole object table).
func (g *Graph) Reset(t *kobj.Table, root *kobj.Container, batteryLabel label.Label, cfg Config) {
	if cfg.BatteryCapacity == 0 {
		cfg.BatteryCapacity = DefaultBatteryCapacity
	}
	if cfg.DecayHalfLife == 0 {
		cfg.DecayHalfLife = DefaultHalfLife
	}
	g.table = t
	g.battery = nil
	g.reserves = truncReserves(g.reserves)
	g.taps = truncTaps(g.taps)
	g.active = truncTaps(g.active)
	g.decayable = truncReserves(g.decayable)
	g.onTapActivity = nil
	g.onDecayActivity = nil
	g.flowScratch = truncTaps(g.flowScratch)
	g.flowHook = nil
	g.tapSeq = 0
	g.consumed = 0
	g.recharged = 0
	g.capacity = cfg.BatteryCapacity
	g.halfLife = cfg.DecayHalfLife
	g.strict = cfg.StrictHoarding
	g.settleEpoch = 0
	g.settleTelescope = truncTaps(g.settleTelescope)
	clear(g.settleReplay)
	g.settleReplay = g.settleReplay[:0]
	g.settleSens = truncReserves(g.settleSens)
	g.settleLevels = g.settleLevels[:0]
	g.settleSrcs = truncReserves(g.settleSrcs)
	g.settleBiters = truncReserves(g.settleBiters)
	if g.memo != nil {
		g.memo.reset()
	}
	g.flowWalks = 0
	g.settledBatches = 0
	g.decayFactorDT = 0
	g.decayFactor = 0
	g.battery = g.newReserve(root, "battery", batteryLabel, ReserveOpts{DecayExempt: true})
	g.battery.level = cfg.BatteryCapacity
}

// truncReserves / truncTaps empty a pointer slice while keeping its
// backing array, clearing the elements so a recycled graph does not pin
// the previous device's objects.
func truncReserves(s []*Reserve) []*Reserve {
	clear(s)
	return s[:0]
}

func truncTaps(s []*Tap) []*Tap {
	clear(s)
	return s[:0]
}

// Battery returns the root reserve (§3.4: "the root of the graph is a
// reserve representing the system battery").
func (g *Graph) Battery() *Reserve { return g.battery }

// ReserveOpts carries optional reserve attributes.
type ReserveOpts struct {
	// AllowDebt permits DebitSelf to push the level negative (§5.5.2).
	AllowDebt bool
	// DecayExempt excludes the reserve from the global half-life, the
	// exception granted to trusted pools like netd's (§5.5.2).
	DecayExempt bool
}

// NewReserve creates an empty reserve in the given container, the
// reserve_create syscall of Fig. 5. Any thread may create reserves to
// subdivide and delegate its resources (§3.5).
func (g *Graph) NewReserve(parent *kobj.Container, name string, lbl label.Label, opts ReserveOpts) *Reserve {
	return g.newReserve(parent, name, lbl, opts)
}

func (g *Graph) newReserve(parent *kobj.Container, name string, lbl label.Label, opts ReserveOpts) *Reserve {
	r := &Reserve{
		graph:       g,
		name:        name,
		allowDebt:   opts.AllowDebt,
		decayExempt: opts.DecayExempt,
	}
	r.OnRelease(func() { g.releaseReserve(r) })
	g.table.Register(&r.Base, kobj.KindReserve, lbl, parent, r)
	g.reserves = append(g.reserves, r)
	if !r.decayExempt {
		g.decayable = append(g.decayable, r)
		if g.onDecayActivity != nil {
			g.onDecayActivity()
		}
	}
	return r
}

// releaseReserve handles kobj deallocation: any remaining energy returns
// to the battery so deleting a reserve can never destroy energy, then
// the reserve stops participating in flows. Every tap touching the
// reserve is deactivated as well: a tap with a dead endpoint can never
// move energy again, so leaving it in the active set would keep the
// set non-empty forever and permanently defeat the kernel's quiescence
// fast path.
func (g *Graph) releaseReserve(r *Reserve) {
	if r == g.battery {
		panic("core: battery reserve deleted")
	}
	if r.level > 0 {
		g.battery.credit(r.level)
		r.level = 0
	} else if r.level < 0 {
		// A reserve deleted in debt (§5.5.2 after-the-fact billing that
		// no tap ever funded) has consumed energy that was never
		// sourced; the battery absorbs the shortfall — possibly going
		// negative on an overdrawn device — so deletion can neither
		// create nor destroy energy.
		debt := -r.level
		g.battery.level -= debt
		r.stats.In += debt
		r.level = 0
	}
	r.dead = true
	g.reserves = removeFirst(g.reserves, r)
	if !r.decayExempt {
		g.decayable = removeFirst(g.decayable, r)
	}
	deactivated := false
	for _, t := range g.taps {
		if (t.src == r || t.sink == r) && t.activeIdx >= 0 {
			g.setTapActive(t, false)
			deactivated = true
		}
	}
	if deactivated {
		g.notifyTapActivity()
	}
}

// NewTap creates a tap between src and sink, the tap_create syscall of
// Fig. 5. The creator must hold use privileges on both reserves — a tap
// actively moves resources, so it "needs privileges to observe and
// modify both reserve levels" (§3.5). The privileges are checked here,
// once: the tap keeps none, and its flows need none. The tap starts with
// rate zero; call SetRate or SetFrac.
func (g *Graph) NewTap(parent *kobj.Container, name string, p label.Priv, src, sink *Reserve, lbl label.Label) (*Tap, error) {
	if src == nil || sink == nil {
		return nil, fmt.Errorf("core: tap %q: nil reserve", name)
	}
	if src == sink {
		return nil, fmt.Errorf("core: tap %q: source and sink are the same reserve", name)
	}
	if src.dead || sink.dead {
		return nil, fmt.Errorf("%w: tap %q endpoints", ErrDead, name)
	}
	if !p.CanUse(src.Label()) {
		return nil, fmt.Errorf("%w: tap %q needs use of source %q", ErrAccess, name, src.name)
	}
	if !p.CanUse(sink.Label()) {
		return nil, fmt.Errorf("%w: tap %q needs use of sink %q", ErrAccess, name, sink.name)
	}
	// A new tap carries no rate, so it does not join the active set.
	t := &Tap{graph: g, name: name, src: src, sink: sink, activeIdx: -1, seq: g.tapSeq}
	t.OnRelease(func() { g.releaseTap(t) })
	g.table.Register(&t.Base, kobj.KindTap, lbl, parent, t)
	g.tapSeq++
	g.taps = append(g.taps, t)
	return t, nil
}

func (g *Graph) releaseTap(t *Tap) {
	t.dead = true
	g.setTapActive(t, false)
	g.taps = removeFirst(g.taps, t)
}

// Flow runs one batch interval: every active tap moves dt's worth of
// energy, in creation order. The kernel calls this periodically (§3.3:
// "transfers are executed in batch periodically"). Zero-rate taps are
// not visited; they would move nothing.
//
// The batch operates on a true snapshot of the active set: a callback
// reached from a tap's flow may release or zero any tap (which compacts
// g.active in place) without shifting a later tap out of the batch.
// Taps activated during the batch start next batch; taps released
// mid-batch are marked dead and skipped; taps zeroed mid-batch are
// visited but move nothing.
func (g *Graph) Flow(dt units.Time) {
	if dt <= 0 {
		return
	}
	g.flowWalks++
	g.flowScratch = append(g.flowScratch[:0], g.active...)
	for _, t := range g.flowScratch {
		if g.flowHook != nil {
			g.flowHook(t)
		}
		t.flow(dt)
	}
}

// Decay applies the global half-life: every non-exempt reserve leaks
// level×(1−2^(−dt/halfLife)) back to the battery (§5.2.2). The kernel
// calls this with a coarse period (1 s); the exponential form makes the
// long-run half-life independent of the call interval.
func (g *Graph) Decay(dt units.Time) {
	if dt <= 0 || g.halfLife < 0 {
		return
	}
	f := g.retentionFactor(dt)
	for _, r := range g.decayable {
		if r.level <= 0 {
			continue
		}
		var retained units.Energy
		retained, r.decayCarry = bite(r.level, r.decayCarry, f)
		leaked := r.level - retained
		if leaked <= 0 {
			continue
		}
		r.level = retained
		r.stats.Decayed += leaked
		g.battery.credit(leaked)
	}
}

// bite applies one decay bite of retention factor f (2⁻³⁰ fixed point)
// to a positive level: retained = level × f / 2³⁰, with the per-reserve
// fixed-point carry so the long-run half-life is exact. Decay and both
// of settlement's bite loops call it. The level is split as a·2³⁰ + b,
// so retained = a·f + ⌊(b·f + carry)/2³⁰⌋ and no product overflows
// int64 at any level, where level × f alone would above 2³³ µJ.
func bite(level units.Energy, carry, f int64) (retained units.Energy, newCarry int64) {
	a, b := int64(level)>>30, int64(level)&(1<<30-1)
	total := b*f + carry
	return units.Energy(a*f + total>>30), total & (1<<30 - 1)
}

// retentionFactor returns 2³⁰ × 2^(−dt/halfLife), memoized for the
// common case of a fixed decay interval.
func (g *Graph) retentionFactor(dt units.Time) int64 {
	if dt == g.decayFactorDT && g.decayFactor != 0 {
		return g.decayFactor
	}
	f := int64(math.Round(math.Exp2(-float64(dt)/float64(g.halfLife)) * (1 << 30)))
	if f > 1<<30 {
		f = 1 << 30
	}
	g.decayFactorDT, g.decayFactor = dt, f
	return f
}

// Transfer performs a direct reserve-to-reserve transfer (§3.2: "a
// thread can also perform a reserve-to-reserve transfer provided it is
// permitted to modify both reserves"). It is all-or-nothing.
func (g *Graph) Transfer(p label.Priv, src, sink *Reserve, amount units.Energy) error {
	if amount < 0 {
		panic("core: negative transfer")
	}
	if src.dead || sink.dead {
		return fmt.Errorf("%w: transfer", ErrDead)
	}
	if !p.CanUse(src.Label()) {
		return fmt.Errorf("%w: transfer from %q", ErrAccess, src.name)
	}
	if !p.CanUse(sink.Label()) {
		return fmt.Errorf("%w: transfer to %q", ErrAccess, sink.name)
	}
	if g.strict {
		if err := g.checkHoarding(p, src, sink); err != nil {
			return err
		}
	}
	if src.level < amount {
		return fmt.Errorf("%w: %q has %v, need %v", ErrInsufficient, src.name, src.level, amount)
	}
	src.debit(amount)
	sink.credit(amount)
	// A transfer credits the sink outside the flow machinery, so any
	// closed-form prediction keyed on the sink's inflow (sweep
	// settlement, throttled-quantum skips) is now stale. The hook is an
	// idempotent resume + invalidate, so firing on every transfer is
	// cheap in the common case.
	g.notifyTapActivity()
	return nil
}

// TransferUpTo moves min(amount, src level) and returns the amount
// moved. netd uses this to sweep whatever waiting threads have
// accumulated into the shared pool (§5.5.2).
func (g *Graph) TransferUpTo(p label.Priv, src, sink *Reserve, amount units.Energy) (units.Energy, error) {
	avail := units.ClampNonNegative(src.level)
	moved := units.Min(amount, avail)
	if moved == 0 {
		// Still perform the access checks so callers can't probe.
		if !p.CanUse(src.Label()) || !p.CanUse(sink.Label()) {
			return 0, fmt.Errorf("%w: transfer", ErrAccess)
		}
		return 0, nil
	}
	if err := g.Transfer(p, src, sink, moved); err != nil {
		return 0, err
	}
	return moved, nil
}

// checkHoarding implements the strict rule from §5.2.2: a transfer from
// src to sink is allowed only if for every backward proportional tap
// draining src that the caller cannot remove, the sink has a backward
// proportional tap at least as strong.
func (g *Graph) checkHoarding(p label.Priv, src, sink *Reserve) error {
	srcDrain := g.backwardDrain(src, p)
	sinkDrain := g.backwardDrain(sink, label.Priv{})
	if sinkDrain < srcDrain {
		return fmt.Errorf("%w: source drains at %d PPM/s, sink at %d PPM/s",
			ErrHoarding, srcDrain, sinkDrain)
	}
	return nil
}

// backwardDrain sums the proportional drain (PPM/s) of taps whose source
// is r, ignoring taps the given privileges could modify (and thus
// legitimately remove).
func (g *Graph) backwardDrain(r *Reserve, ignorable label.Priv) PPM {
	var total PPM
	for _, t := range g.taps {
		if t.dead || t.src != r || t.kind != TapProportional {
			continue
		}
		if ignorable.CanModify(t.Label()) {
			continue
		}
		total += t.frac
	}
	return total
}

// Consumed returns the total energy consumed (gone from the system)
// since the graph was created.
func (g *Graph) Consumed() units.Energy { return g.consumed }

// Capacity returns the initial battery capacity.
func (g *Graph) Capacity() units.Energy { return g.capacity }

// TotalHeld returns the sum of all live reserve levels, battery
// included. Debt (negative levels) subtracts.
func (g *Graph) TotalHeld() units.Energy {
	var sum units.Energy
	for _, r := range g.reserves {
		sum += r.level
	}
	return sum
}

// ChargeBattery credits up to amount of external energy (a wall or USB
// charger) into the battery, clamping at the rated capacity: a full
// battery accepts nothing, and the battery level never overshoots. It
// returns the energy actually accepted. Unlike every other movement in
// the graph this is not a redistribution of the initial capacity, so
// the accepted amount is tracked separately (recharged) and extends the
// conservation identity rather than violating it.
func (g *Graph) ChargeBattery(amount units.Energy) units.Energy {
	if amount <= 0 {
		return 0
	}
	room := g.capacity - g.battery.level
	if room <= 0 {
		return 0
	}
	if amount > room {
		amount = room
	}
	g.battery.credit(amount)
	g.recharged += amount
	return amount
}

// ConservationError returns TotalHeld + Consumed − Capacity − Recharged,
// which is zero in a correct graph. Property tests assert this stays
// exactly zero across arbitrary operation sequences.
func (g *Graph) ConservationError() units.Energy {
	return g.TotalHeld() + g.consumed - g.capacity - g.recharged
}

// HalfLife returns the configured decay half-life (negative if decay is
// disabled).
func (g *Graph) HalfLife() units.Time { return g.halfLife }

func removeFirst[T comparable](s []T, v T) []T {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
