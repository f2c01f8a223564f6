package kobj

import "repro/internal/snap"

// Codec saves or restores the table's allocation state: the next ID
// and the live object census. Objects themselves are not recorded — a
// load runs against a table whose owner rebuilt the identical object
// population — but the census must match, and the ID allocator jumps
// forward so objects created after the restore receive the same IDs
// they would have in an uninterrupted run.
func (t *Table) Codec(c *snap.Codec) {
	c.Section("kobj")
	next := t.next
	snap.Uint(c, &next)
	snap.SameUint(c, "live objects", len(t.objs))
	if c.Loading() && next < t.next {
		c.Failf("kobj: restore: snapshot next ID %d behind rebuilt table's %d", next, t.next)
		return
	}
	t.next = next
}
