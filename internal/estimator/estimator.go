// Package estimator implements the adaptive energy-model refinement the
// paper sketches as future work: "Using the HTC Dream's limited battery
// level information Cinder could adapt its energy model based on past
// component and application usage, dynamically refining its costs"
// (§9), building on the §4.4 observation that Cinder "can take advantage
// of new accounting techniques".
//
// ActivationEstimator maintains an exponentially-weighted moving average
// of the radio's measured per-activation overhead. netd can use it in
// place of the static 9.5 J constant (netd.Config.Estimator), so the
// pooling threshold tracks the device's actual behaviour — including the
// outliers Fig. 4 shows.
package estimator

import (
	"repro/internal/radio"
	"repro/internal/units"
)

// DefaultAlphaPct is the EWMA weight (percent) given to each new
// observation.
const DefaultAlphaPct = 25

// ActivationEstimator tracks radio activation overhead online.
type ActivationEstimator struct {
	alphaPct int64
	estimate units.Energy
}

// NewActivationEstimator seeds the estimator with the offline-measured
// prior (the profile's 9.5 J) and subscribes it to the radio's episode
// stream.
func NewActivationEstimator(r *radio.Radio, alphaPct int) *ActivationEstimator {
	if alphaPct <= 0 || alphaPct > 100 {
		alphaPct = DefaultAlphaPct
	}
	e := &ActivationEstimator{
		alphaPct: int64(alphaPct),
		estimate: r.Profile().RadioActivationEnergy,
	}
	r.OnEpisode(e.Observe)
	return e
}

// Observe folds one measured episode cost into the running estimate.
func (e *ActivationEstimator) Observe(cost units.Energy) {
	if cost <= 0 {
		return
	}
	// estimate += α (cost − estimate), in integer percent arithmetic,
	// rounding the correction half away from zero. Go's integer division
	// truncates toward zero, so a truncating EWMA dead-bands any delta
	// below 100/α µJ — in the downward direction that means one high
	// outlier would ratchet the estimate up and small corrections could
	// never walk it back down, over-predicting forever.
	num := int64(cost-e.estimate) * e.alphaPct
	if num >= 0 {
		num += 50
	} else {
		num -= 50
	}
	e.estimate += units.Energy(num / 100)
}

// Estimate returns the current activation-cost prediction.
func (e *ActivationEstimator) Estimate() units.Energy { return e.estimate }
