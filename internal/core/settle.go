package core

import (
	"math"

	"repro/internal/units"
)

// This file implements closed-form tap settlement: advancing the graph
// through many Flow batches in far less than one walk per batch while
// remaining byte-identical — levels, carries, stats — to the
// per-batch sequence. The kernel uses it to park its batch task between
// engine instants and catch up lazily.
//
// The key observations:
//
//   - A constant tap's per-batch transfer is independent of any reserve
//     level (absent starvation): the carry arithmetic telescopes, so n
//     batches collapse into one exact debit/credit.
//   - A proportional tap reads its *source* level every batch, so the
//     source's whole per-batch trajectory matters. Such "sensitive"
//     reserves — and every tap touching them — are replayed batch by
//     batch, in creation order, in one flat integer loop over the
//     chunk: the sensitive levels sit in a small local buffer, each
//     replayed tap's endpoints are resolved once per chunk to a slot in
//     it (or to "outside"), and per batch a tap only computes its draw
//     (propDraw, shared with Tap.flow, or the constant OverRem), clamps
//     it against a sensitive source's local level and adds it to its
//     chunk totals. Levels, carries, tap stats and reserve In/Out are
//     written back once per chunk, and each outside endpoint takes its
//     tap's whole chunk total in one debit or credit. The replay costs
//     O(replayed taps × batches) integer steps and no pointer chasing.
//   - The flat loop reads nothing but the chunk's start state, so each
//     start state is replayed once: a memo (memo.go), which Graph.Reset
//     keeps so every device a fleet worker runs shares it, keys a chunk
//     by k, a plan version (bumped whenever a replayed tap's kind, rate,
//     frac or endpoint slots, or dt, differ from the last replayed
//     plan), the replayed carries and the sensitive levels, and holds
//     only the moved sums that do not telescope and their end carries:
//     a hit rebuilds the end levels from the moved sums and the
//     closed-form taps' carries from the key. A hit compares the whole
//     key and feeds the same write-back as a miss, so it is exact,
//     debit's overdraw panic and flowWalks included. The table is
//     bounded (576 KiB, 8-way LRU sets) and allocated on the graph's
//     first replay; it is derived state, so it is not checkpointed.
//   - Starvation makes constant taps level-dependent too. The per-reserve
//     depletion horizon bounds how many batches can pass before any
//     source could fail to cover its worst-case outflow (ignoring all
//     inflows); within that horizon, no tap clamps and order between
//     telescoped and replayed taps is irrelevant. In particular an
//     outside source of a replayed tap never clamps and no proportional
//     tap reads it, so its per-batch trajectory is never needed.
//   - A window's 1 s decay bites settle in one pass too (SettleBites),
//     planned once. A decayable reserve outside the sensitive set is
//     read by no flow, so it bites in its own per-second loop, fed its
//     taps' telescoped credit for the first partial second and exactly
//     their summed rate each whole second after. A sensitive decayable
//     reserve — a hoard that a proportional tax reads — bites in the
//     replay's level buffer after each second's run of batches, which
//     the memo or the flat loop settles exactly as the per-second
//     sequence's chunk, so the replay set is written back once for the
//     whole window. The pass refuses, untouched, a window where the
//     battery (which every bite credits) is sensitive, a decayable
//     reserve outside the sensitive set is drained by a tap or is a
//     replayed tap's outside sink, or the horizon does not cover one
//     batch beyond it; the caller then settles it one second at a time.
//
// The topological pass is the sensitive-set computation: frac-tap chains
// (a proportional tap whose source is itself fed by a proportional tap)
// resolve naturally, because every link of the chain marks its source
// sensitive and is itself replayed in sequence order.

// horizonCap bounds the returned horizon so that per-tap totals
// (rate × dt × k + carry) can never overflow int64.
const horizonCap = math.MaxInt64 / 4

// HorizonBatches returns how many consecutive Flow(dt) batches are
// provably settleable in closed form from the graph's current state: the
// depletion horizon. Within the horizon no reserve can hit zero and no
// tap's draw can saturate (clamp to a dry source), even assuming every
// inflow stops. extraBatteryDrain is additional per-batch draw the
// caller will interleave with the batches (the kernel's baseline
// billing), charged against the battery's horizon.
//
// A zero horizon means the next batch must be replayed exactly (a source
// is near-dry, a proportional tap drains the battery while the caller
// interleaves its own battery draw, or the batch interval is too coarse
// for the no-clamp argument). The horizon is monotone: after settling j
// batches with no external mutation, the new horizon is at least the
// old one minus j — minus at most one further batch of slack for the
// sub-µJ carry drift of the caller's interleaved drain.
func (g *Graph) HorizonBatches(dt units.Time, extraBatteryDrain units.Power) int64 {
	return g.planSettle(dt, extraBatteryDrain)
}

// FlowWalks returns the number of batches the graph executed as
// per-batch tap walks: full Flow calls (the kernel's batch task, or
// settlement's outside-horizon fallback) plus batches whose sensitive
// subset was replayed, in sequence order, by a settled chunk's flat
// loop. A change that flips taps from telescoped to replayed — a new
// proportional tap marking a shared reserve sensitive — shows up here.
func (g *Graph) FlowWalks() int64 { return g.flowWalks }

// SettledBatches returns the number of batches advanced by closed-form
// settlement chunks. A batch settled in a chunk that also replayed
// sensitive taps counts in both SettledBatches and FlowWalks.
func (g *Graph) SettledBatches() int64 { return g.settledBatches }

// ReserveTapped reports whether any active tap has r as an endpoint.
// The kernel uses it to refuse closed-form device settlement when a
// device's private billing reserve participates in flows (settlement
// reorders device billing against tap batches, which is only exact when
// the two touch disjoint reserves apart from the clamp-guarded battery).
func (g *Graph) ReserveTapped(r *Reserve) bool {
	for _, t := range g.active {
		if t.src == r || t.sink == r {
			return true
		}
	}
	return false
}

// ReserveDrainedByTap reports whether any active tap has r as its
// source. A tap's draw clamps to (and a proportional tap reads) its
// source level, so reordering other debits against flows is only exact
// for reserves no tap drains; taps merely feeding r credit
// level-independent amounts, which commute with debt-allowed debits
// (the SettleSafe argument in internal/msm).
func (g *Graph) ReserveDrainedByTap(r *Reserve) bool {
	for _, t := range g.active {
		if t.src == r {
			return true
		}
	}
	return false
}

// TapsInto appends every active tap whose sink is r to dst (reusing its
// capacity) and returns the extended slice, in deterministic creation
// order. Closed-form sweep settlement (netd's pool-crossing horizon)
// uses it to enumerate a waiter's inflow taps; the sums it computes are
// order-independent, but determinism keeps replay byte-stable anyway.
func (g *Graph) TapsInto(r *Reserve, dst []*Tap) []*Tap {
	for _, t := range g.active {
		if t.sink == r {
			dst = append(dst, t)
		}
	}
	return dst
}

// SettleFlows advances the graph through n consecutive Flow(dt) batches,
// byte-identical to n sequential Flow calls with no interleaved graph
// mutation. Batches inside the depletion horizon settle in closed form
// (telescoped constant taps, sequence-ordered replay of sensitive taps);
// batches outside it fall back to exact per-batch walks. After each
// settled chunk of k batches, interleave(k) — if non-nil — is invoked so
// the caller can apply its own per-batch accounting (baseline billing)
// at matching granularity; extraBatteryDrain must bound that accounting's
// per-batch battery draw so the horizon covers it.
func (g *Graph) SettleFlows(dt units.Time, n int64, extraBatteryDrain units.Power, interleave func(batches int64)) {
	for n > 0 {
		k := g.settleChunk(dt, n, extraBatteryDrain)
		if k == 0 {
			g.Flow(dt)
			k = 1
		}
		if interleave != nil {
			interleave(k)
		}
		n -= k
	}
}

// SettleBites settles a quiet window that ends on a decay bite in one
// pass: n = first + (bites−1)·(1 s/dt) consecutive Flow(dt) batches with
// a Decay(1 s) after batch first and after every 1 s/dt batches from
// there, byte-identical to that sequence. The caller bills its own
// per-batch battery drain, bounded by extraBatteryDrain, for the n
// batches itself; within the horizon it commutes with the pass.
//
// It accepts only a window in which every level a bite moves is either
// replayed or read by no flow: the battery, which every bite credits,
// is not sensitive; no decayable reserve outside the sensitive set is
// drained by a tap, whose horizon a bite would shrink; no replayed
// tap's outside sink decays, since an outside endpoint takes its whole
// total once, after the bites; and the horizon covers n+1 batches, so
// the per-second sequence would also have settled each of its chunks in
// closed form (the caller's drain carry can cost the horizon one batch
// across a bite), which keeps FlowWalks and SettledBatches equal too.
// Otherwise it returns false with the graph unchanged.
//
// Accepted, the pass plans once. A decayable reserve outside the
// sensitive set is fed only by telescoped taps, so it bites in a
// per-second loop over its own level, in Decay's arithmetic, fed the
// first partial second's telescoped credit and then its taps' summed
// rate each second. A sensitive decayable reserve (a hoard that a
// proportional tap reads) bites in the replay's level buffer after each
// second's batches, exactly where the per-second sequence bites it.
// The telescoped taps settle in one debit and credit each, the replay
// set and outside endpoints are written back once, and the summed leak
// credits the battery once.
func (g *Graph) SettleBites(dt units.Time, first, bites int64, extraBatteryDrain units.Power) bool {
	if g.halfLife < 0 || dt <= 0 || units.Second%dt != 0 || bites < 1 ||
		first < 1 || first > int64(units.Second/dt) {
		return false
	}
	n := first + (bites-1)*int64(units.Second/dt)
	if g.planSettle(dt, extraBatteryDrain) <= n {
		return false
	}
	epoch := g.settleEpoch
	if g.battery.sensitiveMark == epoch {
		return false
	}
	for _, r := range g.decayable {
		if r.settleMark == epoch {
			return false
		}
	}
	for i := range g.settleReplay {
		if e := &g.settleReplay[i]; e.sink == outside && !e.t.sink.decayExempt {
			return false
		}
	}
	g.settleBiters = g.settleBiters[:0]
	for _, r := range g.decayable {
		r.biteFirst, r.biteSecond = 0, 0
		if r.sensitiveMark == epoch {
			g.settleBiters = append(g.settleBiters, r)
		}
	}
	for _, t := range g.settleTelescope {
		if r := t.sink; !r.decayExempt {
			r.biteFirst += units.Energy((int64(t.rate)*int64(dt)*first + t.carry) / 1000)
			r.biteSecond += units.Energy(t.rate)
		}
	}
	leaked := g.biteSeconds(bites) + g.applyChunk(dt, first, bites, true)
	if leaked > 0 {
		g.battery.credit(leaked)
	}
	return true
}

// biteSeconds runs bites Decay(1 s) bites over every decayable reserve
// outside the sensitive set as the window's flows move its level,
// biteFirst before the first bite and biteSecond before each later one,
// takes only the leak out of the live level (applyChunk credits the
// flows) and returns the summed leak. It keeps Decay's skip of a level
// ≤ 0 and its carry update on a bite that leaks nothing.
func (g *Graph) biteSeconds(bites int64) units.Energy {
	f := g.retentionFactor(units.Second)
	var leakedAll units.Energy
	for _, r := range g.decayable {
		if r.sensitiveMark == g.settleEpoch {
			continue // it bites in the replay's level buffer
		}
		level, carry := r.level, r.decayCarry
		if level <= 0 && r.biteFirst == 0 && r.biteSecond == 0 {
			continue // a bite skips it every second
		}
		in := r.biteFirst
		var leaked units.Energy
		for b := int64(0); b < bites; b++ {
			level += in
			in = r.biteSecond
			if level <= 0 {
				continue
			}
			var retained units.Energy
			retained, carry = bite(level, carry, f)
			if l := level - retained; l > 0 {
				level = retained
				leaked += l
			}
		}
		r.decayCarry = carry
		r.level -= leaked
		r.stats.Decayed += leaked
		leakedAll += leaked
	}
	return leakedAll
}

// replayTap is one replayed tap in a settled chunk's flat loop: its
// rate, its endpoints resolved to slots of g.settleLevels (outside, −1,
// for a reserve not in the sensitive set), its running carry, its moved
// and starved sums over the current run, and its moved total over the
// chunk.
type replayTap struct {
	t         *Tap
	kind      TapKind
	rate      units.Power
	frac      PPM
	src, sink int
	carry     int64
	moved     units.Energy
	starved   units.Energy
	total     units.Energy
}

const outside = -1

// replaySlot returns r's slot in the replay loop's level buffer, or
// outside when r is not sensitive in the current planning epoch.
func (r *Reserve) replaySlot(epoch uint64) int {
	if r.sensitiveMark == epoch {
		return r.settleSlot
	}
	return outside
}

// planSettle partitions the active set for one settlement chunk and
// returns the depletion horizon. It fills g.settleSens (the sensitive
// reserves, in slot order), g.settleTelescope (constant taps whose
// endpoints are level-trajectory-independent), g.settleReplay
// (proportional taps plus any tap touching a sensitive reserve, in
// creation order, endpoints resolved to slots) and g.settleSrcs
// (reserves with per-batch outflow, carrying worst-case drain sums).
func (g *Graph) planSettle(dt units.Time, extra units.Power) int64 {
	if dt <= 0 {
		return 0
	}
	if g.flowHook != nil {
		return 0
	}
	g.settleEpoch++
	epoch := g.settleEpoch
	hasProp := false
	g.settleSens = g.settleSens[:0]
	for _, t := range g.active {
		if t.kind == TapProportional {
			hasProp = true
			if t.src.sensitiveMark != epoch {
				t.src.sensitiveMark = epoch
				t.src.settleSlot = len(g.settleSens)
				g.settleSens = append(g.settleSens, t.src)
			}
		}
	}
	if hasProp && dt > units.Second {
		// For dt ≤ 1 s a proportional tap can never overdraw its source
		// (want ≤ level × dt/1s); coarser batches void that argument.
		return 0
	}
	if extra > 0 && g.battery.sensitiveMark == epoch {
		return 0
	}

	g.settleTelescope = g.settleTelescope[:0]
	g.settleReplay = g.settleReplay[:0]
	g.settleSrcs = g.settleSrcs[:0]
	rateCap := horizonCap / int64(dt)
	for _, t := range g.active {
		if t.kind == TapProportional {
			g.addReplay(t, epoch)
			continue
		}
		if int64(t.rate) > rateCap {
			return 0
		}
		// Sensitive reserves need no depletion bound: every tap touching
		// them is replayed batch by batch in sequence order, so their
		// whole trajectory — clamping included — is exact by
		// construction. (The battery is the one exception, handled by
		// the extra-drain rejection above.)
		if t.src.sensitiveMark != epoch {
			g.addSettleDrain(t.src, epoch, int64(t.rate)*int64(dt), t.carry)
		}
		if t.src.sensitiveMark == epoch || t.sink.sensitiveMark == epoch {
			g.addReplay(t, epoch)
		} else {
			g.settleTelescope = append(g.settleTelescope, t)
		}
	}
	if extra > 0 {
		if int64(extra) > rateCap {
			return 0
		}
		// The caller's own carry is invisible here; budget a full one.
		g.addSettleDrain(g.battery, epoch, int64(extra)*int64(dt), 999)
	}

	horizon := int64(horizonCap)
	for _, r := range g.settleSrcs {
		if r.settleDrain <= 0 {
			continue
		}
		if r.settleDrain >= horizonCap {
			return 0
		}
		// Worst-case outflow over k batches, in µJ·10⁻³: k × Σ(rate·dt)
		// plus each draining tap's current carry (the exact telescoped
		// bound: Σ ⌊(rate·dt·k + carry)/1000⌋ ≤ (k·Σrate·dt + Σcarry)/1000).
		// Using the live carries instead of a fixed per-tap slack makes
		// the horizon exactly monotone under settlement.
		avail := int64(r.level)
		if avail <= 0 {
			return 0
		}
		if avail > horizonCap/1000 {
			avail = horizonCap
		} else {
			avail *= 1000
		}
		avail -= r.settleCarry
		if avail < r.settleDrain {
			return 0
		}
		if k := avail / r.settleDrain; k < horizon {
			horizon = k
		}
	}
	return horizon
}

// addReplay appends t to the chunk's replay set with its endpoints
// resolved to level slots.
func (g *Graph) addReplay(t *Tap, epoch uint64) {
	g.settleReplay = append(g.settleReplay, replayTap{
		t: t, kind: t.kind, rate: t.rate, frac: t.frac, carry: t.carry,
		src: t.src.replaySlot(epoch), sink: t.sink.replaySlot(epoch),
	})
}

// addSettleDrain accumulates one tap's (or the caller's) per-batch
// worst-case outflow onto its source reserve for the current planning
// epoch, registering the reserve as a drain source on first touch.
func (g *Graph) addSettleDrain(r *Reserve, epoch uint64, perBatchScaled, carry int64) {
	if r.settleMark != epoch {
		r.settleMark = epoch
		r.settleDrain = 0
		r.settleCarry = 0
		g.settleSrcs = append(g.settleSrcs, r)
	}
	// Saturating add: several near-cap rates on one source must not
	// wrap the drain sum negative (the horizon loop treats a
	// saturated drain as "replay only").
	if r.settleDrain > horizonCap-perBatchScaled {
		r.settleDrain = horizonCap
	} else {
		r.settleDrain += perBatchScaled
	}
	r.settleCarry += carry
}

// settleChunk settles up to n batches in closed form, returning how many
// it advanced (0 when the horizon demands an exact per-batch walk). The
// chunk is exact: within the horizon no tap can clamp, so the telescoped
// constant taps commute with the sequence-ordered replay of the
// sensitive set.
func (g *Graph) settleChunk(dt units.Time, n int64, extra units.Power) int64 {
	k := g.planSettle(dt, extra)
	if k <= 0 {
		return 0
	}
	if k > n {
		k = n
	}
	g.applyChunk(dt, k, 1, false)
	return k
}

// applyChunk settles the current plan's batches, which it must cover,
// in runs: first batches, then runs−1 of 1 s/dt each. The telescoped
// taps settle all of them in one debit and credit each, the replay set
// through replayChunk, which with decay set bites every sensitive
// decayable reserve after each run. It returns the leak those bites
// took, which the caller credits to the battery.
func (g *Graph) applyChunk(dt units.Time, first, runs int64, decay bool) units.Energy {
	k := first + (runs-1)*int64(units.Second/dt)
	for _, t := range g.settleTelescope {
		total := int64(t.rate)*int64(dt)*k + t.carry
		moved := units.Energy(total / 1000)
		t.carry = total % 1000
		if moved > 0 {
			t.src.debit(moved)
			t.sink.credit(moved)
			t.stats.Moved += moved
		}
	}
	var leaked units.Energy
	if len(g.settleReplay) > 0 {
		leaked = g.replayChunk(dt, first, runs, decay)
		g.flowWalks += k
	}
	g.settledBatches += k
	return leaked
}

// replayChunk settles the replay set through applyChunk's runs over one
// level buffer, planned and synced with the replay memo once. Each run
// takes its results from the memo when its start state is there, and
// otherwise runs replayLoop (and records its results); with decay set,
// every sensitive decayable reserve (g.settleBiters) then takes
// Decay(1 s)'s bite in the buffer, and replayChunk returns the summed
// leak. A run is exactly the chunk the per-second sequence settles
// between two bites, so the memo sees the same keys either way. The
// results are written back once: levels, carries and tap stats, and
// each outside endpoint's total in one debit or credit.
func (g *Graph) replayChunk(dt units.Time, first, runs int64, decay bool) units.Energy {
	levels := g.settleLevels[:0]
	for _, r := range g.settleSens {
		levels = append(levels, r.level)
	}
	g.settleLevels = levels
	replay := g.settleReplay
	if g.memo == nil {
		g.memo = newReplayMemo()
	}
	g.memo.sync(g, dt)
	var f int64
	if decay {
		f = g.retentionFactor(units.Second)
	}
	var leaked units.Energy
	for k := first; runs > 0; k, runs = int64(units.Second/dt), runs-1 {
		g.replayRun(dt, k, levels, replay)
		if decay {
			leaked += g.biteLevels(levels, f)
		}
	}

	for i, r := range g.settleSens {
		r.level = levels[i]
	}
	for i := range replay {
		e := &replay[i]
		t := e.t
		t.carry = e.carry
		if e.total == 0 {
			continue
		}
		t.stats.Moved += e.total
		if e.src == outside {
			t.src.debit(e.total)
		}
		if e.sink == outside {
			t.sink.credit(e.total)
		} else {
			t.sink.stats.In += e.total
		}
	}
	return leaked
}

// replayRun advances the level buffer and the replay set's carries by k
// batches, from the memo or through replayLoop, and adds each tap's
// moved sum to its total.
func (g *Graph) replayRun(dt units.Time, k int64, levels []units.Energy, replay []replayTap) {
	e, hit := g.memo.find(levels, replay, k)
	if hit {
		g.memo.load(e, k, levels, replay)
	} else {
		for i := range replay {
			replay[i].moved, replay[i].starved = 0, 0
		}
		replayLoop(dt, k, levels, replay)
		if e >= 0 {
			g.memo.store(e, replay)
		}
	}
	for i := range replay {
		replay[i].total += replay[i].moved
	}
}

// biteLevels applies one Decay(1 s) bite, of retention factor f, to each
// sensitive decayable reserve's level in the buffer, with Decay's skip
// of a level ≤ 0 and its carry update on a bite that leaks nothing, and
// returns the summed leak. The carry and the Decayed stat go straight to
// the reserve, which no flow reads them from.
func (g *Graph) biteLevels(levels []units.Energy, f int64) units.Energy {
	var leaked units.Energy
	for _, r := range g.settleBiters {
		level := levels[r.settleSlot]
		if level <= 0 {
			continue
		}
		var retained units.Energy
		retained, r.decayCarry = bite(level, r.decayCarry, f)
		if l := level - retained; l > 0 {
			levels[r.settleSlot] = retained
			r.stats.Decayed += l
			leaked += l
		}
	}
	return leaked
}

// replayLoop runs k batches of the replay set in one flat loop over the
// sensitive levels, byte-identical to k rounds of Tap.flow over it. Each
// batch visits the taps in creation order; a tap draws from its carry
// and (proportional) its source's local level, clamps only against a
// sensitive source (within the horizon an outside source always covers
// its draw), and moves the sensitive endpoints' local levels. Active
// taps have live endpoints (releasing either end deactivates the tap),
// so Tap.flow's dead checks cannot fire here. It reads nothing but its
// arguments, which is what makes the replay memo exact.
func replayLoop(dt units.Time, k int64, levels []units.Energy, replay []replayTap) {
	for b := int64(0); b < k; b++ {
		for i := range replay {
			e := &replay[i]
			var want units.Energy
			if e.kind == TapConst {
				want, e.carry = e.rate.OverRem(dt, e.carry)
			} else {
				want, e.carry = propDraw(levels[e.src], e.frac, dt, e.carry)
			}
			if want <= 0 {
				continue
			}
			moved := want
			if e.src != outside {
				moved = units.Min(want, units.ClampNonNegative(levels[e.src]))
				levels[e.src] -= moved
			}
			if e.sink != outside {
				levels[e.sink] += moved
			}
			e.moved += moved
			e.starved += want - moved
		}
	}
}
