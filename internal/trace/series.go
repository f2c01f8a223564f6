// Package trace records and summarizes time series produced by the
// simulation: power traces, reserve levels, transfer sizes. Experiment
// runners use it to regenerate the paper's figures as data (CSV /
// aligned columns) and quick ASCII plots.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/units"
)

// Point is one sample: a simulated timestamp and a value in the series'
// unit.
type Point struct {
	T units.Time
	V int64
}

// Series is an append-only time series with a name and unit.
type Series struct {
	name   string
	unit   string
	points []Point
}

// NewSeries returns an empty series.
func NewSeries(name, unit string) *Series {
	return &Series{name: name, unit: unit}
}

// Reset empties the series in place, keeping its backing array, so a
// recycled producer (the fleet runner reusing a radio) starts from the
// state NewSeries would produce.
func (s *Series) Reset(name, unit string) {
	s.name = name
	s.unit = unit
	s.points = s.points[:0]
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Rename changes the series name (experiments relabel generic traces to
// figure-specific names before reporting).
func (s *Series) Rename(name string) { s.name = name }

// Unit returns the unit string.
func (s *Series) Unit() string { return s.unit }

// Add appends a sample. Timestamps must be non-decreasing.
func (s *Series) Add(t units.Time, v int64) {
	if n := len(s.points); n > 0 && t < s.points[n-1].T {
		panic(fmt.Sprintf("trace: %s: timestamp %v before %v", s.name, t, s.points[n-1].T))
	}
	s.points = append(s.points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// Points returns the underlying samples (not a copy; treat as
// read-only).
func (s *Series) Points() []Point { return s.points }

// At returns the most recent value at or before t, or 0 if none.
func (s *Series) At(t units.Time) int64 {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.points[i-1].V
}

// Last returns the final sample, or a zero Point for an empty series.
func (s *Series) Last() Point {
	if len(s.points) == 0 {
		return Point{}
	}
	return s.points[len(s.points)-1]
}

// Stats summarizes a series over its full extent.
type Stats struct {
	N        int
	Min, Max int64
	Mean     float64
	First    Point
	Last     Point
}

// Summarize computes summary statistics. An empty series yields a zero
// Stats.
func (s *Series) Summarize() Stats {
	if len(s.points) == 0 {
		return Stats{}
	}
	st := Stats{
		N:     len(s.points),
		Min:   s.points[0].V,
		Max:   s.points[0].V,
		First: s.points[0],
		Last:  s.points[len(s.points)-1],
	}
	var sum float64
	for _, p := range s.points {
		if p.V < st.Min {
			st.Min = p.V
		}
		if p.V > st.Max {
			st.Max = p.V
		}
		sum += float64(p.V)
	}
	st.Mean = sum / float64(st.N)
	return st
}

// Window returns the samples with from ≤ T < to.
func (s *Series) Window(from, to units.Time) []Point {
	lo := sort.Search(len(s.points), func(i int) bool { return s.points[i].T >= from })
	hi := sort.Search(len(s.points), func(i int) bool { return s.points[i].T >= to })
	return s.points[lo:hi]
}

// MeanOver returns the mean value of samples in [from, to), or 0 if the
// window is empty.
func (s *Series) MeanOver(from, to units.Time) float64 {
	pts := s.Window(from, to)
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += float64(p.V)
	}
	return sum / float64(len(pts))
}

// Integrate returns the trapezoid-free (sample-and-hold) integral of
// the series over [from, to): each sample's value is held until the
// next sample. The result unit is value-unit × milliseconds.
func (s *Series) Integrate(from, to units.Time) int64 {
	var total int64
	pts := s.points
	for i, p := range pts {
		start := p.T
		if start < from {
			start = from
		}
		end := to
		if i+1 < len(pts) && pts[i+1].T < to {
			end = pts[i+1].T
		}
		if end > start && p.T < to && (i+1 >= len(pts) || pts[i+1].T > from) {
			total += p.V * int64(end-start)
		}
	}
	return total
}

// TimeAbove returns the total duration (sample-and-hold) the series is
// strictly above the threshold within [from, to).
func (s *Series) TimeAbove(threshold int64, from, to units.Time) units.Time {
	var total units.Time
	pts := s.points
	for i, p := range pts {
		if p.V <= threshold {
			continue
		}
		start := p.T
		if start < from {
			start = from
		}
		end := to
		if i+1 < len(pts) && pts[i+1].T < to {
			end = pts[i+1].T
		}
		if end > start {
			total += end - start
		}
	}
	return total
}

// CSV renders the series as "ms,value" lines with a header.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "time_ms,%s_%s\n", s.name, s.unit)
	for _, p := range s.points {
		fmt.Fprintf(&b, "%d,%d\n", int64(p.T), p.V)
	}
	return b.String()
}
