package core

import (
	"slices"

	"repro/internal/units"
)

// This file implements the replay memo: a fixed-size, set-associative
// table of replayLoop results, so a settled chunk whose start state the
// graph — or any graph that shared the memo before it — has already
// replayed takes its results from the table instead of running the flat
// loop again.
//
// replayLoop is a pure function of the chunk length k, the batch
// interval dt, the sensitive reserves' levels, and each replayed tap's
// kind, rate, frac, endpoint slots and carry. The memo splits these in
// two. Everything but k, the levels and the carries is the plan, which
// changes rarely; the memo keeps a copy of the plan it last saw and
// issues a new plan version whenever the replay set differs from it in
// content. Tap identity is not part of the plan, and Graph.Reset keeps
// both the plan and its version: a recycled graph rebuilt with the same
// tap shape — the next device a fleet worker runs — hits the entries the
// devices before it stored. Versions only grow, so an entry stored under
// an earlier version can never match again.
//
// An entry is stride consecutive words, key then value. The key packs
// k, the plan version and the carries into 16-bit lanes, four to a word
// (a carry is always in (−1000, 1000)), then holds the levels. The value
// holds only what the key cannot give back: one word per tap that is
// not closed-form, its moved sum shifted left by memoLane bits above its
// end carry's lane. A closed-form tap is a constant tap whose source is
// outside: it never clamps, so its moved sum and end carry telescope
// from the start carry in the key, as (rate·dt·k + carry)/1000 and
// %1000. The end levels are not kept either: every tap that touches a
// sensitive reserve is replayed, so each end level is its start level
// plus the moved sums of the taps into it minus those of the taps out
// of it. A chunk in which any tap starved is not stored, since no
// starved sum is kept, nor is one whose stored moved sum would not fit
// above its carry's lane (2⁴⁷ µJ or more). A hit compares the whole
// key, not a hash, so it returns exactly what the loop would compute;
// an entry never written is all zeros, and no key is, since k ≥ 1.
//
// The table is memoWords words, allocated on a graph's first replay.
// Each set holds memoWays entries in recency order: a hit moves its
// entry to the front, a store inserts at the front and evicts the last.
// The set count is whatever fits the stride, picked by a multiply-shift
// of the key's hash; a stride change clears the table, so an entry is
// never read at another layout's offset, and so does the version
// outgrowing its lane. A replay set that does not fit a single set, a k
// beyond its lane, or a carry outside its lane is simply not memoized.
// The memo is derived state: it is not checkpointed, and a restored
// device starts with it cold.

const (
	memoWords = 73_728 // 576 KiB
	memoWays  = 8
	memoLane  = 16 // bits of k, the version and each carry in a key, and of an end carry
)

// planSig is what the flat loop reads from one replayed tap, apart from
// its carry.
type planSig struct {
	kind      TapKind
	rate      units.Power
	frac      PPM
	src, sink int
}

func (e *replayTap) sig() planSig {
	return planSig{e.kind, e.rate, e.frac, e.src, e.sink}
}

// closedForm reports whether the tap's moved sum over a chunk follows
// from its start carry alone: a constant tap never reads a level, and
// one whose source is outside never clamps.
func (s *planSig) closedForm() bool {
	return s.kind == TapConst && s.src == outside
}

// replayMemo is a memo of replayLoop results, shared by every graph
// that a worker recycles through Graph.Reset.
type replayMemo struct {
	// words holds sets × memoWays entries of stride words each.
	words []int64

	version  uint64
	plan     []planSig
	planDT   units.Time
	sets     uint64 // 0 when the plan cannot be memoized
	keyWords int
	stride   int
	key      []int64

	hits, misses int64
}

func newReplayMemo() *replayMemo {
	return &replayMemo{words: make([]int64, memoWords)}
}

// reset zeroes the hit and miss counters. The plan, its version and
// every entry stay, for the next graph built on the same tap shape.
func (m *replayMemo) reset() {
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
	sums := 0
	for i := range replay {
		m.plan = append(m.plan, replay[i].sig())
		if !m.plan[i].closedForm() {
			sums++
		}
	}
	m.planDT = dt
	m.version++
	if m.version == 1<<memoLane {
		clear(m.words)
		m.version = 1
	}
	m.keyWords = (2+len(replay)+3)/4 + len(g.settleSens)
	if stride := m.keyWords + sums; stride != m.stride {
		clear(m.words)
		m.stride = stride
	}
	m.sets = uint64(len(m.words) / (memoWays * m.stride))
}

// find looks the chunk's start state up. It returns the offset of the
// entry holding it and true on a hit; on a miss, the offset of the entry
// store evicts, or −1 when the chunk cannot be memoized. The start state
// is kept in m.key for load and store.
func (m *replayMemo) find(levels []units.Energy, replay []replayTap, k int64) (int, bool) {
	if m.sets == 0 || k >= 1<<memoLane {
		return -1, false
	}
	key, ok := appendCarries(m.key[:0], k|int64(m.version)<<memoLane, 2, replay)
	if !ok {
		return -1, false
	}
	for _, l := range levels {
		key = append(key, int64(l))
	}
	m.key = key

	h := uint64(0)
	for _, w := range key {
		h = (h ^ uint64(w)) * 0x9E3779B97F4A7C15
	}
	first := int((h>>32)*m.sets>>32) * memoWays * m.stride
	e := first
	for ; e < first+memoWays*m.stride; e += m.stride {
		if slices.Equal(m.words[e:e+m.keyWords], key) {
			m.hits++
			return e, true
		}
	}
	m.misses++
	return e - m.stride, false
}

// load rebuilds, from entry e found for a chunk of k batches, the
// chunk's end levels and the replay set's moved sums and end carries,
// exactly as replayLoop would have left them, and moves the entry to the
// front of its set.
func (m *replayMemo) load(e int, k int64, levels []units.Energy, replay []replayTap) {
	v := m.words[e+m.keyWords : e+m.stride]
	for i := range replay {
		r := &replay[i]
		if m.plan[i].closedForm() {
			r.moved, r.carry = r.rate.OverRem(m.planDT*units.Time(k), r.carry)
		} else {
			r.moved, r.carry = units.Energy(v[0]>>memoLane), int64(int16(v[0]))
			v = v[1:]
		}
		if r.src != outside {
			levels[r.src] -= r.moved
		}
		if r.sink != outside {
			levels[r.sink] += r.moved
		}
	}
	if (e/m.stride)%memoWays != 0 {
		m.insert(e, replay)
	}
}

// store records the chunk's results, just computed by replayLoop, at
// the front of the set find picked, evicting entry e — unless a tap
// starved in the chunk or a moved sum does not fit its lane.
func (m *replayMemo) store(e int, replay []replayTap) {
	for i := range replay {
		r := &replay[i]
		if r.starved != 0 || !m.plan[i].closedForm() && r.moved >= 1<<(63-memoLane) {
			return
		}
	}
	m.insert(e, replay)
}

// insert writes the chunk under the start state in m.key at the front
// of entry e's set, shifting the entries before e back by one. The loop
// leaves every carry in (−1000, 1000), so each end carry fits its lane.
func (m *replayMemo) insert(e int, replay []replayTap) {
	first := e - (e/m.stride)%memoWays*m.stride
	copy(m.words[first+m.stride:e+m.stride], m.words[first:e])
	w := append(m.words[first:first:first+m.stride], m.key...)
	for i := range replay {
		if !m.plan[i].closedForm() {
			w = append(w, int64(replay[i].moved)<<memoLane|int64(uint16(replay[i].carry)))
		}
	}
}

// appendCarries appends the replay set's carries to dst in 16-bit
// lanes, four to a word, after the first lanes lanes already in w. It
// reports false if a carry does not fit its lane.
func appendCarries(dst []int64, w int64, lanes int, replay []replayTap) ([]int64, bool) {
	for i := range replay {
		c := replay[i].carry
		if c != int64(int16(c)) {
			return dst, false
		}
		w |= int64(uint16(c)) << (memoLane * lanes)
		if lanes++; lanes == 4 {
			dst = append(dst, w)
			w, lanes = 0, 0
		}
	}
	if lanes > 0 {
		dst = append(dst, w)
	}
	return dst, true
}
