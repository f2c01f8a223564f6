package trace

import (
	"fmt"
	"strings"
)

// PlotConfig controls ASCII rendering.
type PlotConfig struct {
	// Width is the number of time buckets (columns). Default 72.
	Width int
	// Height is the number of value rows. Default 12.
	Height int
	// MaxV fixes the top of the value axis; 0 means autoscale.
	MaxV int64
}

// Plot renders the series as a crude ASCII chart, one column per time
// bucket (bucket value = mean of samples in the bucket). It exists so
// cmd/cinder-sim can show the figures' shapes in a terminal; the CSV
// output is the precise artifact.
func Plot(s *Series, cfg PlotConfig) string {
	if cfg.Width <= 0 {
		cfg.Width = 72
	}
	if cfg.Height <= 0 {
		cfg.Height = 12
	}
	pts := s.Points()
	if len(pts) == 0 {
		return fmt.Sprintf("%s: (empty)\n", s.Name())
	}
	t0, t1 := pts[0].T, pts[len(pts)-1].T
	if t1 == t0 {
		t1 = t0 + 1
	}
	span := t1 - t0

	// Bucketize.
	sums := make([]float64, cfg.Width)
	counts := make([]int, cfg.Width)
	for _, p := range pts {
		b := int(int64(p.T-t0) * int64(cfg.Width) / int64(span+1))
		if b >= cfg.Width {
			b = cfg.Width - 1
		}
		sums[b] += float64(p.V)
		counts[b]++
	}
	vals := make([]float64, cfg.Width)
	var maxV float64
	for i := range vals {
		if counts[i] > 0 {
			vals[i] = sums[i] / float64(counts[i])
		}
		if vals[i] > maxV {
			maxV = vals[i]
		}
	}
	if cfg.MaxV > 0 {
		maxV = float64(cfg.MaxV)
	}
	if maxV == 0 {
		maxV = 1
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s], %v → %v, max %.0f\n", s.Name(), s.Unit(), t0, t1, maxV)
	for row := cfg.Height; row >= 1; row-- {
		threshold := maxV * float64(row) / float64(cfg.Height)
		lower := maxV * float64(row-1) / float64(cfg.Height)
		b.WriteString("|")
		for col := 0; col < cfg.Width; col++ {
			switch {
			case counts[col] == 0:
				b.WriteByte(' ')
			case vals[col] >= threshold:
				b.WriteByte('#')
			case vals[col] > lower:
				b.WriteByte('.')
			default:
				b.WriteByte(' ')
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", cfg.Width) + "\n")
	return b.String()
}
