package power

import (
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// MeterSamplePeriod mirrors the paper's measurement setup: "we sampled
// both voltage and current approximately every 200 ms" (§4.2).
const MeterSamplePeriod = 200 * units.Millisecond

// Meter reproduces the Agilent E3644A bench supply: it periodically
// samples cumulative consumed energy and derives average power per
// sample window. Experiments attach it to a kernel's consumed-energy
// counter and read the resulting series as "measured" power, exactly
// the role the DC supply plays in Figures 4, 12 and 13.
type Meter struct {
	series   *trace.Series
	read     func() units.Energy
	last     units.Energy
	lastTime units.Time
}

// NewMeter attaches a meter to the engine, sampling the given cumulative
// energy counter every MeterSamplePeriod. The series records average
// power (in µW) over each window, timestamped at the window end.
func NewMeter(e *sim.Engine, name string, read func() units.Energy) *Meter {
	m := &Meter{
		series:   trace.NewSeries(name, "µW"),
		read:     read,
		last:     read(),
		lastTime: e.Now(),
	}
	e.Every("meter:"+name, MeterSamplePeriod, func(e *sim.Engine) { m.sample(e) })
	return m
}

func (m *Meter) sample(e *sim.Engine) {
	now := e.Now()
	dt := now - m.lastTime
	if dt <= 0 {
		return
	}
	cur := m.read()
	p := (cur - m.last).DividedBy(dt)
	m.series.Add(now, int64(p))
	m.last = cur
	m.lastTime = now
}

// Series returns the recorded power series.
func (m *Meter) Series() *trace.Series { return m.series }
