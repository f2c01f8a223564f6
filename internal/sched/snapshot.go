package sched

import "repro/internal/snap"

// This file implements checkpoint/resume for the scheduler. A snapshot
// records the tick accounting, the round-robin cursor and a per-thread
// record for *every* thread in list order — including exited ones,
// which the scheduler deliberately keeps in its list (list length and
// position feed the round-robin arithmetic, so two runs whose lists
// differ would schedule differently even if the live populations
// matched).
//
// A load runs against a scheduler whose owner rebuilt the device's
// construction-time threads. Those form a prefix of the snapshot's
// records (threads created mid-run always append after them) and are
// matched by name; every record past the prefix must be an Exited
// thread and is materialized as a tombstone — a list entry with the
// right name and state that the scheduler skips but counts, exactly as
// it would the genuinely exited thread. A record that is neither a
// rebuilt thread nor exited means the device had a live mid-run thread
// at the checkpoint — not a quiescent state — and fails loudly.

// Codec saves or restores the scheduler's mutable state.
func (s *Scheduler) Codec(c *snap.Codec) {
	c.Section("sched")
	snap.SameInt(c, "CPU power", s.cpuPower)
	snap.Int(c, &s.busyTicks)
	snap.Int(c, &s.idleTicks)
	snap.Uint(c, &s.rr)
	rebuilt := len(s.threads)
	n := c.Count(rebuilt)
	if n < rebuilt {
		c.Failf("sched: restore: snapshot has %d threads, rebuilt scheduler already has %d", n, rebuilt)
		return
	}
	for i := 0; i < n; i++ {
		if i < rebuilt {
			c.Name("thread", i, s.threads[i].name)
		} else { // only on load: a tombstone past the rebuilt prefix
			s.threads = append(s.threads, &Thread{sched: s})
			c.String(&s.threads[i].name)
		}
		t := s.threads[i]
		snap.Uint(c, &t.state)
		snap.Int(c, &t.wakeAt)
		snap.Int(c, &t.cpuConsumed)
		snap.Int(c, &t.ticksRun)
		snap.Int(c, &t.throttledTicks)
		if i >= rebuilt && t.state != Exited {
			c.Failf("sched: restore: snapshot thread %d (%q) is %v and not part of the rebuilt "+
				"device; only exited mid-run threads can be restored as tombstones", i, t.name, t.state)
			return
		}
	}
	if !c.Loading() {
		return
	}
	s.runnable = 0
	for _, t := range s.threads {
		if t.state == Runnable {
			s.runnable++
		}
	}
}
