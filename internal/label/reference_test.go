package label

import (
	"fmt"
	"testing"
)

// refCats is the reference's category universe: three categories a
// label or privilege set may name, and one named by neither, which
// stands for the unlisted categories a label's default covers.
var refCats = []Category{1, 2, 3, 99}

// refLabel is an object label spelled out: a level for each category,
// the default for any category it does not list.
type refLabel struct {
	def    Level
	levels map[Category]Level
}

func (l refLabel) level(c Category) Level {
	if lv, ok := l.levels[c]; ok {
		return lv
	}
	return l.def
}

// refPriv is a thread's side of the comparison: Star for a category it
// owns, its clearance for every other.
type refPriv struct {
	clearance Level
	owned     map[Category]bool
}

func (p refPriv) level(c Category) Level {
	if p.owned[c] {
		return Star
	}
	return p.clearance
}

// refObserve is the definition: the object's level flows to the
// thread's in every category, Star dominating every level.
func refObserve(p refPriv, l refLabel) bool {
	for _, c := range refCats {
		if t := p.level(c); t != Star && l.level(c) > t {
			return false
		}
	}
	return true
}

// refModify is observation plus, in every category the object raises
// above its default, the thread's Star.
func refModify(p refPriv, l refLabel) bool {
	if !refObserve(p, l) {
		return false
	}
	for _, c := range refCats {
		if l.level(c) > l.def && p.level(c) != Star {
			return false
		}
	}
	return true
}

// refUse is observation and modification both.
func refUse(p refPriv, l refLabel) bool {
	return refObserve(p, l) && refModify(p, l)
}

// TestLatticeMatchesReference compares CanObserve, CanModify and CanUse
// with the reference on every label over three categories (a default
// and, per category, no entry or any of the four levels) and every
// privilege set (any subset of the categories owned, the zero value's
// clearance or any of the four). Each label is built both by New and
// by a chain of With, each privilege set by WithOwned and by NewPriv.
func TestLatticeMatchesReference(t *testing.T) {
	var labels []refLabel
	for def := Level0; def <= Level3; def++ {
		// Per category: 4 means no entry, 0–3 an entry at that level.
		for code := 0; code < 5*5*5; code++ {
			l := refLabel{def: def, levels: map[Category]Level{}}
			for i, rest := 0, code; i < 3; i, rest = i+1, rest/5 {
				if lv := Level(rest % 5); lv != 4 {
					l.levels[Category(i+1)] = lv
				}
			}
			labels = append(labels, l)
		}
	}
	var privs []refPriv
	var built [][]Priv
	for set := 0; set < 8; set++ {
		owned := map[Category]bool{}
		var cats []Category
		for i := 0; i < 3; i++ {
			if set&(1<<i) != 0 {
				owned[Category(i+1)] = true
				cats = append(cats, Category(i+1))
			}
		}
		// The zero value's clearance is DefaultLevel, as is NewPriv's.
		privs = append(privs, refPriv{clearance: DefaultLevel, owned: owned})
		built = append(built, []Priv{Priv{}.WithOwned(cats...), NewPriv(cats...)})
		for cl := Level0; cl <= Level3; cl++ {
			privs = append(privs, refPriv{clearance: cl, owned: owned})
			built = append(built, []Priv{Priv{}.WithClearance(cl).WithOwned(cats...), NewPriv(cats...).WithClearance(cl)})
		}
	}

	checked := 0
	for _, rl := range labels {
		chain := New(rl.def, nil)
		for c, lv := range rl.levels {
			chain = chain.With(c, lv)
		}
		for _, l := range []Label{New(rl.def, rl.levels), chain} {
			for i, rp := range privs {
				for _, p := range built[i] {
					got := fmt.Sprint(p.CanObserve(l), p.CanModify(l), p.CanUse(l))
					want := fmt.Sprint(refObserve(rp, rl), refModify(rp, rl), refUse(rp, rl))
					if got != want {
						t.Fatalf("%v on %v: observe, modify, use = %s, reference %s", p, l, got, want)
					}
					checked++
				}
			}
		}
	}
	if want := 4 * 125 * 2 * 40 * 2; checked != want {
		t.Fatalf("checked %d cases, want %d", checked, want)
	}
}
