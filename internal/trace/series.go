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

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() int64 {
	if len(s.points) == 0 {
		return 0
	}
	m := s.points[0].V
	for _, p := range s.points {
		m = max(m, p.V)
	}
	return m
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

// CSV renders the series as "ms,value" lines with a header.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "time_ms,%s_%s\n", s.name, s.unit)
	for _, p := range s.points {
		fmt.Fprintf(&b, "%d,%d\n", int64(p.T), p.V)
	}
	return b.String()
}
