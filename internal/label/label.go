// Package label implements a simplified HiStar-style information-flow
// label model, sufficient to reproduce the access-control behaviour the
// Cinder paper relies on (§3.5): every kernel object — including reserves
// and taps — carries a label, and operations require observe and/or
// modify privileges relative to that label.
//
// A label maps categories to secrecy/integrity levels 0–3, with a default
// level for unlisted categories. A thread additionally owns a set of
// categories (HiStar's ★ level), granting it the right to bypass the
// level comparison for those categories. This is the subset of HiStar's
// model that Cinder's evaluation exercises: creating objects with a
// restrictive label, embedding privileges in taps, and checking
// observe/modify rights on every reserve operation.
package label

import "sort"

// Category is an opaque privilege category, allocated by the kernel.
// Category 0 is never allocated and may be used as a sentinel.
type Category uint64

// Level is a per-category secrecy/integrity level.
type Level uint8

// Levels as in HiStar. For the purposes of Cinder's resource objects the
// useful reading is: a thread whose level for category c is below an
// object's level cannot observe the object, and modification additionally
// requires the object's level not to exceed the thread's.
const (
	Level0 Level = iota // lowest
	Level1              // default for most objects
	Level2
	Level3 // highest
	// Star is thread-side ownership of a category: it dominates and is
	// dominated by every level, i.e. it grants full bypass for that
	// category. Star never appears in an object label.
	Star Level = 255
)

// DefaultLevel is the level assumed for categories not present in a
// label.
const DefaultLevel = Level1

// entry is one per-category exception in a label, kept in a slice sorted
// by category. Labels are tiny (0–2 exceptions in practice) and their
// checks run on every reserve operation — the flat sorted representation
// makes CanObserve/CanModify allocation-free linear scans instead of
// (randomized) map iterations, which profiling showed dominating the
// busy-path Consume cost.
type entry struct {
	c  Category
	lv Level
}

// Label is an immutable mapping from categories to levels plus a default.
// The zero value is the "public" label: default Level1, no exceptions.
type Label struct {
	def     Level
	entries []entry // sorted by category; never contains lv == def
}

// New returns a label with the given default level and per-category
// exceptions. Star entries are rejected: stars belong to privilege sets
// (Priv), not object labels.
func New(def Level, entries map[Category]Level) Label {
	if def == Star {
		panic("label: Star is not a valid default level")
	}
	var es []entry
	for c, l := range entries {
		if l == Star {
			panic("label: Star is not a valid object level")
		}
		if l == def {
			continue // normalize: drop redundant entries
		}
		es = append(es, entry{c, l})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].c < es[j].c })
	return Label{def: def, entries: es}
}

// Public returns the default label carried by unrestricted objects.
func Public() Label { return Label{def: DefaultLevel} }

// Level returns the level for category c.
func (l Label) Level(c Category) Level {
	for _, e := range l.entries {
		if e.c == c {
			return e.lv
		}
	}
	return l.def
}

// With returns a copy of the label with category c set to level lv.
func (l Label) With(c Category, lv Level) Label {
	if lv == Star {
		panic("label: Star is not a valid object level")
	}
	es := make([]entry, 0, len(l.entries)+1)
	inserted := false
	for _, e := range l.entries {
		if e.c == c {
			continue
		}
		if !inserted && c < e.c && lv != l.def {
			es = append(es, entry{c, lv})
			inserted = true
		}
		es = append(es, e)
	}
	if !inserted && lv != l.def {
		es = append(es, entry{c, lv})
	}
	if len(es) == 0 {
		es = nil // normalize: an exception-free label is always the nil form
	}
	return Label{def: l.def, entries: es}
}

// Equal reports whether two labels are identical (same default and same
// normalized exception set).
func (l Label) Equal(o Label) bool {
	if l.def != o.def || len(l.entries) != len(o.entries) {
		return false
	}
	for i, e := range l.entries {
		if o.entries[i] != e {
			return false
		}
	}
	return true
}

// Priv is a thread's privilege set: the categories it owns (★) plus its
// clearance level. The zero value owns nothing and has the default
// clearance, which suffices to use public objects.
//
// Owned categories live in a small sorted slice rather than a map:
// privilege sets are tiny (0–2 categories) and Owns runs inside
// CanModify on every reserve debit, where the flat scan beats map
// hashing and keeps the check allocation-free.
type Priv struct {
	owned        []Category // sorted, deduplicated
	clearance    Level
	clearanceSet bool
}

// NewPriv returns a privilege set owning the given categories with
// clearance DefaultLevel.
func NewPriv(owned ...Category) Priv {
	p := Priv{clearance: DefaultLevel, clearanceSet: true}
	p.owned = insertOwned(nil, owned...)
	return p
}

// insertOwned merges categories into a sorted deduplicated slice,
// always returning fresh backing (Priv values must never share mutable
// state with their parents).
func insertOwned(base []Category, cs ...Category) []Category {
	if len(base) == 0 && len(cs) == 0 {
		return nil
	}
	out := make([]Category, len(base), len(base)+len(cs))
	copy(out, base)
	for _, c := range cs {
		i := sort.Search(len(out), func(i int) bool { return out[i] >= c })
		if i < len(out) && out[i] == c {
			continue
		}
		out = append(out, 0)
		copy(out[i+1:], out[i:])
		out[i] = c
	}
	return out
}

// WithClearance returns a copy of the privilege set with the given
// clearance level.
func (p Priv) WithClearance(lv Level) Priv {
	if lv == Star {
		panic("label: Star is not a valid clearance")
	}
	q := p.clone()
	q.clearance = lv
	q.clearanceSet = true
	return q
}

// WithOwned returns a copy that additionally owns the given categories.
func (p Priv) WithOwned(cs ...Category) Priv {
	return Priv{
		owned:        insertOwned(p.owned, cs...),
		clearance:    p.clearance,
		clearanceSet: p.clearanceSet,
	}
}

// Union returns a privilege set owning everything either set owns, with
// the higher of the two clearances. It models a tap's embedded
// privileges combining with its creator's (§3.5: "taps can have
// privileges embedded in them").
func (p Priv) Union(o Priv) Priv {
	q := Priv{
		owned:        insertOwned(p.owned, o.owned...),
		clearance:    p.clearance,
		clearanceSet: p.clearanceSet,
	}
	if o.Clearance() > q.Clearance() {
		q.clearance = o.Clearance()
		q.clearanceSet = true
	}
	return q
}

func (p Priv) clone() Priv {
	q := Priv{clearance: p.clearance, clearanceSet: p.clearanceSet}
	q.owned = insertOwned(p.owned)
	return q
}

// Owns reports whether the set owns category c. Privilege sets hold at
// most a handful of categories, so the linear scan is faster than any
// hashed lookup and never allocates.
func (p Priv) Owns(c Category) bool {
	for _, o := range p.owned {
		if o == c {
			return true
		}
		if o > c {
			return false
		}
	}
	return false
}

// Clearance returns the clearance level. A privilege set whose clearance
// was never set explicitly (including the zero value) has DefaultLevel.
func (p Priv) Clearance() Level {
	if !p.clearanceSet {
		return DefaultLevel
	}
	return p.clearance
}

// CanObserve reports whether a thread with privileges p may observe an
// object labelled l: for every category, either the thread owns it or
// the object's level does not exceed the thread's clearance.
//
// In Cinder terms (§3.5), observing a reserve is required even for a
// failed consumption, because failure reveals that the level is zero.
func (p Priv) CanObserve(l Label) bool {
	if !p.levelOK(l.def) {
		// The default applies to infinitely many categories the thread
		// cannot own, so an unobservable default is disqualifying.
		return false
	}
	for _, e := range l.entries {
		if p.Owns(e.c) {
			continue
		}
		if !p.levelOK(e.lv) {
			return false
		}
	}
	return true
}

// CanModify reports whether a thread with privileges p may modify an
// object labelled l. In this simplified lattice modification requires
// observation plus ownership of every category raised above the default
// level — a category at an elevated level marks the object as protected
// by that category's owner. Both conditions are checked in one pass:
// this runs on every reserve debit.
func (p Priv) CanModify(l Label) bool {
	if !p.levelOK(l.def) {
		return false
	}
	for _, e := range l.entries {
		owns := p.Owns(e.c)
		if !owns && !p.levelOK(e.lv) {
			return false // unobservable
		}
		if !owns && e.lv > l.def {
			return false // protected by an unowned category
		}
	}
	return true
}

// CanUse reports whether a thread may consume resources from an object
// labelled l. Per §3.5 this requires both observe (failed consumption
// reveals the level) and modify (successful consumption changes it) —
// and modification already implies observation in this lattice.
func (p Priv) CanUse(l Label) bool {
	return p.CanModify(l)
}

func (p Priv) levelOK(lv Level) bool {
	return lv <= p.Clearance()
}
