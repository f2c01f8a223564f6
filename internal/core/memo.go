package core

import (
	"slices"

	"repro/internal/units"
)

// This file implements the replay memo: a fixed-size, set-associative
// table of replayLoop results, so a settled chunk whose start state the
// graph has already replayed takes its results from the table instead
// of running the flat loop again.
//
// replayLoop is a pure function of the chunk length k, the batch
// interval dt, the sensitive reserves' levels, and each replayed tap's
// kind, rate, frac, endpoint slots and carry. The memo splits these in
// two. Everything but k, the levels and the carries is the plan, which
// changes rarely; the memo keeps a copy of the plan it last saw and
// issues a new plan version whenever the replay set differs from it in
// any of those fields (tap identity, by creation sequence, included).
// Versions only grow, so an entry stored under an earlier version can
// never match again. An entry's tag holds the version and k; its key
// holds the levels and the carries (packed four to a word: a carry is
// always in (−1000, 1000)); its value holds the end levels, end carries
// and each tap's moved and starved sums. A hit compares the whole key,
// not a hash, so it returns exactly what the loop would compute.
//
// The table is bounded: memoSets × memoWays entries of memoEntryWords
// words at most, allocated on a graph's first replay and kept across
// Graph.Reset, which strands every entry by forcing a new version. A
// replay set needing more words per entry gets fewer sets; one that does
// not fit a single set, a k beyond the tag's 16 bits, or a carry outside
// its packed lane is simply not memoized. The memo is derived state: it
// is not checkpointed, and a restored device starts with it cold.

const (
	memoSets       = 2048
	memoWays       = 4
	memoEntryWords = 8 // key and value words per entry at the full set count
	memoKBits      = 16
)

// planSig is what the flat loop reads from one replayed tap, apart from
// its carry, plus the tap's identity.
type planSig struct {
	seq       uint64
	kind      TapKind
	rate      units.Power
	frac      PPM
	src, sink int
}

func (e *replayTap) sig() planSig {
	return planSig{e.t.seq, e.kind, e.rate, e.frac, e.src, e.sink}
}

// replayMemo is a Graph's memo of replayLoop results.
type replayMemo struct {
	// tags holds each entry's version<<memoKBits | k; zero marks an
	// entry never written. words holds stride words per entry: keyWords
	// of key, then the value.
	tags  []uint64
	words []int64

	version  uint64
	plan     []planSig
	planDT   units.Time
	sets     int // a power of two; 0 when the plan cannot be memoized
	keyWords int
	stride   int
	key      []int64

	hits, misses int64
}

func newReplayMemo() *replayMemo {
	return &replayMemo{
		tags:  make([]uint64, memoSets*memoWays),
		words: make([]int64, memoSets*memoWays*memoEntryWords),
	}
}

// reset forgets the recorded plan, so the next replay issues a new
// version and no entry stored before it can hit.
func (m *replayMemo) reset() {
	m.plan = m.plan[:0]
	m.hits, m.misses = 0, 0
}

// sync brings the plan version up to date with g's replay set. The
// number of sensitive reserves needs no comparison of its own: every
// one is the source slot of a replayed proportional tap.
func (m *replayMemo) sync(g *Graph, dt units.Time) {
	replay := g.settleReplay
	same := dt == m.planDT && len(replay) == len(m.plan)
	for i := 0; same && i < len(replay); i++ {
		same = m.plan[i] == replay[i].sig()
	}
	if same {
		return
	}
	m.plan = m.plan[:0]
	for i := range replay {
		m.plan = append(m.plan, replay[i].sig())
	}
	m.planDT = dt
	m.version++
	if m.version == 1<<(64-memoKBits) {
		clear(m.tags)
		m.version = 1
	}
	carryWords := (len(replay) + 3) / 4
	m.keyWords = len(g.settleSens) + carryWords
	m.stride = 2*m.keyWords + 2*len(replay)
	m.sets = memoSets
	for m.sets > 0 && m.sets*memoWays*m.stride > len(m.words) {
		m.sets /= 2
	}
}

// find looks the chunk's start state up. It returns the entry holding
// it and true on a hit; on a miss, the entry to store the chunk's
// results in, or −1 when the chunk cannot be memoized. The start state
// is kept in m.key for store.
func (m *replayMemo) find(levels []units.Energy, replay []replayTap, k int64) (int, bool) {
	if m.sets == 0 || k >= 1<<memoKBits {
		return -1, false
	}
	key := m.key[:0]
	for _, l := range levels {
		key = append(key, int64(l))
	}
	key, ok := appendCarries(key, replay)
	if !ok {
		return -1, false
	}
	m.key = key

	tag := m.version<<memoKBits | uint64(k)
	h := tag * 0x9E3779B97F4A7C15
	for _, w := range key {
		h = (h ^ uint64(w)) * 0x9E3779B97F4A7C15
	}
	set := int(h>>32) & (m.sets - 1)
	first := set * memoWays
	victim := first + int(h>>60)%memoWays
	for e := first; e < first+memoWays; e++ {
		if m.tags[e] == tag && slices.Equal(m.words[e*m.stride:e*m.stride+m.keyWords], key) {
			m.hits++
			return e, true
		}
		if m.tags[e]>>memoKBits != m.version {
			victim = e
		}
	}
	m.misses++
	return victim, false
}

// store records the chunk's results, just computed by replayLoop, in
// entry e under the start state find kept.
func (m *replayMemo) store(e int, k int64, levels []units.Energy, replay []replayTap) {
	w := append(m.words[e*m.stride:e*m.stride:(e+1)*m.stride], m.key...)
	for _, l := range levels {
		w = append(w, int64(l))
	}
	w, _ = appendCarries(w, replay) // the loop leaves every carry in (−1000, 1000)
	for i := range replay {
		w = append(w, int64(replay[i].moved))
	}
	for i := range replay {
		w = append(w, int64(replay[i].starved))
	}
	m.tags[e] = m.version<<memoKBits | uint64(k)
}

// load copies entry e's value into the chunk's levels and replay set,
// exactly as replayLoop would have left them.
func (m *replayMemo) load(e int, levels []units.Energy, replay []replayTap) {
	v := m.words[e*m.stride+m.keyWords : (e+1)*m.stride]
	for i := range levels {
		levels[i] = units.Energy(v[i])
	}
	carries := v[len(levels):]
	sums := carries[(len(replay)+3)/4:]
	for i := range replay {
		r := &replay[i]
		r.carry = int64(int16(carries[i/4] >> (16 * (i % 4))))
		r.moved = units.Energy(sums[i])
		r.starved = units.Energy(sums[len(replay)+i])
	}
}

// appendCarries appends the replay set's carries to dst, four 16-bit
// lanes to a word. It reports false if a carry does not fit its lane.
func appendCarries(dst []int64, replay []replayTap) ([]int64, bool) {
	for i := 0; i < len(replay); i += 4 {
		var w int64
		for j := i; j < len(replay) && j < i+4; j++ {
			c := replay[j].carry
			if c != int64(int16(c)) {
				return dst, false
			}
			w |= int64(uint16(c)) << (16 * (j - i))
		}
		dst = append(dst, w)
	}
	return dst, true
}
