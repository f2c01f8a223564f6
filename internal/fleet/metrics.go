package fleet

// This file is the fleet's perf-observability hook: RunMetrics distills
// a Report into the handful of normalized diagnostics the continuous
// perf harness (internal/perfharness) samples and gates — so the
// harness reads structured numbers off the report instead of re-parsing
// its JSON, and a future field rename cannot silently zero a gate.

// RunMetrics is a report's perf-relevant diagnostics, normalized per
// simulated device-day so populations and horizons of different sizes
// record onto one comparable trend series.
type RunMetrics struct {
	// DeviceDays is the simulated coverage: devices × horizon, in days.
	DeviceDays float64
	// InstantsPerDeviceDay is the fleet-wide executed-instant count
	// normalized by DeviceDays — the quiescence/settlement engagement
	// measure the busy-path optimizations drove from ~1M down to
	// thousands.
	InstantsPerDeviceDay float64
	// BucketInstantsPerDeviceDay breaks InstantsPerDeviceDay down per
	// scenario bucket (mean executed instants per device in the bucket,
	// normalized by the horizon in days) — the per-bucket form behind
	// the busy-bucket step ceiling.
	BucketInstantsPerDeviceDay map[string]float64
}

// RunMetrics derives the perf harness's metric sample from the report.
func (r Report) RunMetrics() RunMetrics {
	days := r.Duration.Seconds() / 86400
	m := RunMetrics{DeviceDays: days * float64(r.Devices)}
	if m.DeviceDays > 0 {
		m.InstantsPerDeviceDay = float64(r.TotalEngineSteps) / m.DeviceDays
	}
	if len(r.Buckets) > 0 && days > 0 {
		m.BucketInstantsPerDeviceDay = make(map[string]float64, len(r.Buckets))
		for _, b := range r.Buckets {
			m.BucketInstantsPerDeviceDay[b.Name] = float64(b.MeanDiagnostics.EngineSteps) / days
		}
	}
	return m
}
