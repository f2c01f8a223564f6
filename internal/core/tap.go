package core

import (
	"fmt"

	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/units"
)

// TapKind selects a tap's rate semantics (§3.3, §5.2.1).
type TapKind uint8

const (
	// TapConst moves a fixed quantity per unit time: the rate is a
	// power. This is the paper's TAP_TYPE_CONST.
	TapConst TapKind = iota
	// TapProportional moves a fraction of the *source* reserve's level
	// per second. The paper's "backward proportional taps" (§5.2.1) are
	// proportional taps whose source is the application reserve and
	// whose sink is the shared pool or battery.
	TapProportional
)

// PPM expresses a proportional tap's fraction in parts per million per
// second: a tap with frac 100_000 PPM (0.1×/s) drains a tenth of its
// source's level each second, the figure the paper uses in Fig. 6b.
type PPM int64

// Tap transfers energy between two reserves at a rate (§3.3). A tap is
// "an efficient, special-purpose thread whose only job is to transfer
// energy between reserves"; in practice the Graph flows all taps in
// batch (Graph.Flow), exactly as the paper describes ("transfers are
// executed in batch periodically to minimize scheduling and
// context-switch overheads").
type Tap struct {
	kobj.Base
	graph *Graph
	name  string
	src   *Reserve
	sink  *Reserve
	kind  TapKind
	// rate is the power moved for TapConst.
	rate units.Power
	// frac is the fraction of the source level moved per second for
	// TapProportional.
	frac PPM
	// carry accumulates sub-microjoule flow residue (µJ·10⁻³ for const,
	// µJ·10⁻⁹-scale fixed point folded into flowProportional for
	// proportional taps).
	carry int64
	dead  bool
	stats TapStats
	// seq is the creation order stamp; activeIdx is this tap's position
	// in the graph's active set, −1 while the rate is zero.
	seq       uint64
	activeIdx int
}

// TapStats records a tap's lifetime transfer volume.
type TapStats struct {
	// Moved is the total energy transferred source→sink.
	Moved units.Energy
}

// Kind returns the tap's rate semantics.
func (t *Tap) Kind() TapKind { return t.kind }

// Stats returns a copy of the tap's transfer record.
func (t *Tap) Stats() TapStats { return t.stats }

// Rate returns the constant rate (zero for proportional taps).
func (t *Tap) Rate() units.Power { return t.rate }

// Carry returns the tap's sub-microjoule flow residue in µJ·10⁻³ (the
// const-tap carry of OverRem). Closed-form settlement planners (netd's
// pool-crossing horizon) use it to decompose a settled window into exact
// per-boundary amounts: over j batches a constant tap moves
// ⌊(rate·dt·j + carry)/1000⌋ µJ, telescoping exactly.
func (t *Tap) Carry() int64 { return t.carry }

// SourceDecays reports whether the global half-life leaks the tap's
// source. The depletion horizon counts tap outflow only, so such a
// source can run dry before the horizon says it could.
func (t *Tap) SourceDecays() bool { return !t.src.decayExempt && t.graph.halfLife >= 0 }

// SetRate changes a constant tap's rate, the tap_set_rate syscall of
// Fig. 5. Only a caller that can modify the tap object may change it —
// the task manager retains exclusive control of foreground taps this way
// (§5.4).
func (t *Tap) SetRate(p label.Priv, rate units.Power) error {
	if t.dead {
		return fmt.Errorf("%w: tap %q", ErrDead, t.name)
	}
	if t.src.dead || t.sink.dead {
		// A tap whose endpoint died can never move energy again;
		// admitting a rate would only re-enter it into the active set
		// as a zombie that defeats kernel quiescence.
		return fmt.Errorf("%w: tap %q endpoints", ErrDead, t.name)
	}
	if !p.CanModify(t.Label()) {
		return fmt.Errorf("%w: modify tap %q", ErrAccess, t.name)
	}
	if rate < 0 {
		return fmt.Errorf("core: tap %q: negative rate %v", t.name, rate)
	}
	wasActive := t.activeIdx >= 0
	t.kind = TapConst
	t.rate = rate
	t.graph.setTapActive(t, t.moves())
	if wasActive {
		// setTapActive only fires the activity hook on insertion; a rate
		// change on an already-active tap (or a deactivation) perturbs
		// closed-form predictions just the same, so notify here.
		t.graph.notifyTapActivity()
	}
	return nil
}

// SetFrac changes a proportional tap's per-second fraction.
func (t *Tap) SetFrac(p label.Priv, frac PPM) error {
	if t.dead {
		return fmt.Errorf("%w: tap %q", ErrDead, t.name)
	}
	if t.src.dead || t.sink.dead {
		return fmt.Errorf("%w: tap %q endpoints", ErrDead, t.name)
	}
	if !p.CanModify(t.Label()) {
		return fmt.Errorf("%w: modify tap %q", ErrAccess, t.name)
	}
	if frac < 0 || frac > 1_000_000 {
		return fmt.Errorf("core: tap %q: fraction %d out of [0,1e6] PPM", t.name, frac)
	}
	wasActive := t.activeIdx >= 0
	t.kind = TapProportional
	t.frac = frac
	t.graph.setTapActive(t, t.moves())
	if wasActive {
		t.graph.notifyTapActivity()
	}
	return nil
}

// moves reports whether the tap's current kind carries a non-zero rate,
// i.e. whether Flow needs to visit it.
func (t *Tap) moves() bool {
	if t.kind == TapConst {
		return t.rate > 0
	}
	return t.frac > 0
}

// flow moves one batch interval's worth of energy, clamped to the source
// level. Flow is a kernel-internal operation: the label checks happened
// at creation time, when the creator proved it held use of both
// reserves.
func (t *Tap) flow(dt units.Time) units.Energy {
	if t.dead || t.src.dead || t.sink.dead {
		return 0
	}
	var want units.Energy
	switch t.kind {
	case TapConst:
		want, t.carry = t.rate.OverRem(dt, t.carry)
	case TapProportional:
		want, t.carry = propDraw(t.src.level, t.frac, dt, t.carry)
	}
	if want <= 0 {
		return 0
	}
	moved := units.Min(want, units.ClampNonNegative(t.src.level))
	if moved > 0 {
		t.src.debit(moved)
		t.sink.credit(moved)
		t.stats.Moved += moved
	}
	return moved
}

// propDraw returns a proportional tap's draw for one batch of dt from a
// source at level, and the carry to keep: level × frac/1e6 × dt/1000,
// carried at µJ·10⁻³ resolution on the final division. level×frac stays
// well below overflow for any realistic battery (15 kJ × 1e6 PPM ≈
// 1.5e16). A source in debt scales to a negative amount, so the draw
// can be non-positive and the carry negative. Tap.flow and settlement's
// flat replay loop both call it, so the two cannot drift.
func propDraw(level units.Energy, frac PPM, dt units.Time, carry int64) (units.Energy, int64) {
	scaled := int64(level) * int64(frac) / 1_000_000
	total := scaled*int64(dt) + carry
	return units.Energy(total / 1000), total % 1000
}

var _ kobj.Object = (*Tap)(nil)
var _ kobj.Object = (*Reserve)(nil)
