package radio

import "repro/internal/snap"

// Codec saves or restores the radio's mutable state: the power state
// machine, billing carries, activity counters and the state-transition
// trace. The funding reserve itself belongs to the graph's section.
func (r *Radio) Codec(c *snap.Codec) {
	c.Section("radio")
	snap.Uint(c, &r.state)
	snap.Int(c, &r.rampEnd)
	snap.Int(c, &r.lastActivity)
	snap.Int(c, &r.plateauScale)
	snap.Int(c, &r.carry)
	snap.Int(c, &r.episodeStart)
	snap.Int(c, &r.stats.Activations)
	snap.Int(c, &r.stats.PacketsSent)
	snap.Int(c, &r.stats.BytesSent)
	snap.Int(c, &r.stats.PacketsReceived)
	snap.Int(c, &r.stats.BytesReceived)
	snap.Int(c, &r.stats.StateEnergy)
	snap.Int(c, &r.stats.DataEnergy)
	snap.Int(c, &r.stats.ActiveTime)
	r.states.Codec(c)
}
