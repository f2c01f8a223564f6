package sim

import (
	"cmp"
	"container/heap"
	"slices"

	"repro/internal/snap"
	"repro/internal/units"
)

// This file implements checkpoint/resume for the engine. A snapshot
// records the clock, step and sequence counters, the RNG draw count,
// every task's schedule and the (At, seq) identity of every pending
// one-shot event. Event and task callbacks are not recorded: a load
// runs against an engine whose owner re-registered the identical
// callbacks by rebuilding the device from its deterministic
// construction path. The load advances the clock, counters and RNG to
// the snapshot state, prunes the install-time events that had already
// fired before the snapshot, and requires what remains to match the
// snapshot's pending set exactly. A pending event scheduled after the
// owner's build (MarkBuilt) has no rebuild, so a save refuses it as a
// load does. Any load mismatch — a task list drift, a pending event
// the rebuild cannot account for, or an RNG that would have to run
// backwards — is a loud, descriptive error, never a silently wrong
// engine.

// evKey is a pending event's identity.
type evKey struct {
	at  units.Time
	seq uint64
}

// Codec saves or restores the engine's run state.
func (e *Engine) Codec(c *snap.Codec) {
	c.Section("engine")
	snap.SameUint(c, "mode", e.mode)
	snap.SameInt(c, "tick", e.tick)
	now, steps, seq, draws := e.now, e.steps, e.seq, e.src.draws
	snap.Int(c, &now)
	snap.Uint(c, &steps)
	snap.Uint(c, &seq)
	snap.Uint(c, &draws)
	snap.SameUint(c, "tasks", len(e.tasks))
	for i, t := range e.tasks {
		c.Name("task", i, t.Name)
		snap.SameInt(c, "task period", t.Period)
		snap.SameInt(c, "task phase", t.Phase)
		snap.Int(c, &t.nextDue)
		c.Bool(&t.deferred)
	}
	var pending []evKey
	if !c.Loading() {
		// A device waiting out a phase refuses a save at instant after
		// instant, so the refusal takes one pass, before any sort.
		if k, ok := e.firstMidRun(); ok {
			e.refuseMidRun(c, k)
			return
		}
		pending = e.pendingKeys()
	}
	n := c.Count(len(pending))
	if c.Loading() {
		pending = make([]evKey, n)
	}
	for i := range pending {
		snap.Int(c, &pending[i].at)
		snap.Uint(c, &pending[i].seq)
		if pending[i].seq >= e.built {
			e.refuseMidRun(c, pending[i])
			return
		}
	}
	if c.Loading() && c.Err() == nil {
		e.resume(c, pending, now, steps, seq, draws)
	}
}

// refuseMidRun fails c on k, a pending event scheduled after the build.
func (e *Engine) refuseMidRun(c *snap.Codec, k evKey) {
	c.Failf("sim: pending event at %v (seq %d) was scheduled mid-run, at or past the build's seq %d; "+
		"a restore cannot rebuild it", k.at, k.seq, e.built)
}

// firstMidRun returns the earliest pending event by (At, seq) that was
// scheduled at or past the build, if any.
func (e *Engine) firstMidRun() (evKey, bool) {
	var first evKey
	found := false
	for _, ev := range e.events {
		if ev.seq < e.built {
			continue
		}
		if !found || ev.at < first.at || ev.at == first.at && ev.seq < first.seq {
			first, found = evKey{ev.at, ev.seq}, true
		}
	}
	return first, found
}

// pendingKeys returns the pending events' identities ordered by
// (At, seq) — a deterministic order independent of heap layout.
func (e *Engine) pendingKeys() []evKey {
	keys := make([]evKey, len(e.events))
	for i, ev := range e.events {
		keys[i] = evKey{ev.at, ev.seq}
	}
	slices.SortFunc(keys, func(a, b evKey) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	return keys
}

// resume overlays the loaded run state onto the rebuilt engine (see
// the file comment).
func (e *Engine) resume(c *snap.Codec, pending []evKey, now units.Time, steps, seq, draws uint64) {
	if now < e.now {
		c.Failf("sim: restore: snapshot time %v behind engine time %v", now, e.now)
		return
	}
	if draws < e.src.draws {
		c.Failf("sim: restore: snapshot has %d RNG draws, engine already at %d", draws, e.src.draws)
		return
	}
	want := make(map[evKey]bool, len(pending))
	for _, k := range pending {
		want[k] = true
	}
	// Prune rebuilt install-time events that had already fired before
	// the snapshot instant, then require exact agreement.
	live := e.events[:0]
	for _, ev := range e.events {
		if ev.at <= now {
			ev.fn = nil
			continue
		}
		live = append(live, ev)
	}
	clear(e.events[len(live):])
	e.events = live
	if len(e.events) != len(want) {
		c.Failf("sim: restore: %d pending events after pruning, snapshot has %d", len(e.events), len(want))
		return
	}
	for _, ev := range e.events {
		if !want[evKey{ev.at, ev.seq}] {
			c.Failf("sim: restore: rebuilt event at %v (seq %d) not in snapshot", ev.at, ev.seq)
			return
		}
	}
	heap.Init(&e.events)

	// Fast-forward the RNG: both Int63 and Uint64 advance the underlying
	// source one step, so replaying the draw-count difference lands the
	// generator in the exact snapshot state. The replay draws through the
	// lazy path, so a snapshot taken before any draw leaves the source
	// unseeded.
	for e.src.draws < draws {
		e.src.Uint64()
	}
	e.now = now
	e.steps = steps
	e.seq = seq
	e.stopRequested = false
	e.tasksDirty = false
	e.entry = false
}
