package netquota

import "repro/internal/snap"

// Codec saves or restores the plan's mutable state: the underlying
// byte graph carries every allowance level, tap carry and accounting
// counter, so the plan itself adds nothing beyond the section frame.
// Allowance handles are structural — the rebuilt world re-creates them
// in the same order, and the graph section checks them name by name.
func (p *Plan) Codec(c *snap.Codec) {
	c.Section("netquota")
	p.graph.Codec(c)
}
