package trace

import (
	"slices"

	"repro/internal/snap"
	"repro/internal/units"
)

// Codec saves or restores the series. The name is structural: a
// mismatch means the restore plumbing wired a snapshot to the wrong
// producer. Timestamps are delta-encoded — samples are non-decreasing
// in time, so the deltas are small non-negative varints and a dense
// series costs a few bytes per point.
func (s *Series) Codec(c *snap.Codec) {
	c.Section("series")
	c.SameString("series name", s.name)
	c.String(&s.unit)
	n := c.Count(len(s.points))
	if c.Loading() {
		s.points = slices.Grow(s.points[:0], n)[:n]
	}
	var prevT units.Time
	for i := range s.points {
		p := &s.points[i]
		dt := p.T - prevT
		snap.Uint(c, &dt)
		p.T = prevT + dt
		snap.Int(c, &p.V)
		prevT = p.T
	}
}
