package trace

import (
	"strings"
	"testing"

	"repro/internal/units"
)

func s(points ...Point) *Series {
	sr := NewSeries("test", "µW")
	for _, p := range points {
		sr.Add(p.T, p.V)
	}
	return sr
}

func TestAddAndLen(t *testing.T) {
	sr := s(Point{0, 1}, Point{10, 2}, Point{20, 3})
	if len(sr.points) != 3 {
		t.Fatalf("len = %d", len(sr.points))
	}
	if last := sr.points[len(sr.points)-1]; last != (Point{20, 3}) {
		t.Fatalf("last point = %v", last)
	}
}

func TestAddRejectsBackwardsTime(t *testing.T) {
	sr := s(Point{10, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("backwards Add did not panic")
		}
	}()
	sr.Add(5, 2)
}

func TestAt(t *testing.T) {
	sr := s(Point{10, 100}, Point{20, 200}, Point{30, 300})
	cases := []struct {
		t    units.Time
		want int64
	}{
		{5, 0}, {10, 100}, {15, 100}, {20, 200}, {29, 200}, {30, 300}, {99, 300},
	}
	for _, c := range cases {
		if got := sr.At(c.t); got != c.want {
			t.Errorf("At(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestMax(t *testing.T) {
	sr := s(Point{0, 10}, Point{10, 30}, Point{20, 20})
	if m := sr.Max(); m != 30 {
		t.Fatalf("Max = %d", m)
	}
	if mean := sr.MeanOver(0, 21); mean != 20 {
		t.Fatalf("MeanOver = %f", mean)
	}
	if m := NewSeries("e", "x").Max(); m != 0 {
		t.Fatalf("empty Max = %d", m)
	}
}

func TestWindowAndMeanOver(t *testing.T) {
	sr := s(Point{0, 10}, Point{10, 20}, Point{20, 30}, Point{30, 40})
	w := sr.Window(10, 30)
	if len(w) != 2 || w[0].V != 20 || w[1].V != 30 {
		t.Fatalf("Window = %v", w)
	}
	if m := sr.MeanOver(10, 30); m != 25 {
		t.Fatalf("MeanOver = %f", m)
	}
	if m := sr.MeanOver(100, 200); m != 0 {
		t.Fatalf("empty MeanOver = %f", m)
	}
}

func TestCSV(t *testing.T) {
	sr := s(Point{0, 1}, Point{200, 2})
	csv := sr.CSV()
	if !strings.HasPrefix(csv, "time_ms,test_µW\n") {
		t.Fatalf("CSV header: %q", csv)
	}
	if !strings.Contains(csv, "200,2\n") {
		t.Fatalf("CSV body: %q", csv)
	}
}

func TestPlotAndSparklineDoNotPanic(t *testing.T) {
	sr := NewSeries("p", "µW")
	for i := 0; i < 500; i++ {
		v := int64(i % 100)
		sr.Add(units.Time(i*10), v)
	}
	out := Plot(sr, PlotConfig{Width: 40, Height: 8})
	if !strings.Contains(out, "#") {
		t.Fatalf("Plot produced no marks:\n%s", out)
	}
	if Plot(NewSeries("e", "x"), PlotConfig{}) == "" {
		t.Fatal("empty Plot returned nothing")
	}
}
