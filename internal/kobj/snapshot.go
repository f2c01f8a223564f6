package kobj

import "repro/internal/snap"

// Codec saves or restores the table's allocation state: the next ID
// and the live object census. Objects themselves are not recorded — a
// load runs against a table whose owner rebuilt the identical object
// population — so a save or a load with a census other than the build's
// (MarkBuilt) fails: an object created mid-run has no rebuild. The ID
// allocator jumps forward so objects created after the restore receive
// the same IDs they would have in an uninterrupted run.
func (t *Table) Codec(c *snap.Codec) {
	c.Section("kobj")
	next, live := t.next, len(t.objs)
	snap.Uint(c, &next)
	snap.Uint(c, &live)
	if live != t.built {
		c.Failf("kobj: %d live objects, %d at build: an object created mid-run has no rebuild", live, t.built)
		return
	}
	if c.Loading() && next < t.next {
		c.Failf("kobj: restore: snapshot next ID %d behind rebuilt table's %d", next, t.next)
		return
	}
	t.next = next
}
