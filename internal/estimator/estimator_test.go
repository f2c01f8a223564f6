package estimator

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/label"
	"repro/internal/netd"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/units"
)

func newRadioRig(t *testing.T, jitter bool) (*kernel.Kernel, *radio.Radio) {
	t.Helper()
	k := kernel.New(kernel.Config{Seed: 23, DecayHalfLife: -1})
	r := radio.New(k.Eng, k.Graph, k.Root, k.KernelPriv(), radio.Config{
		Profile: k.Profile,
		Jitter:  jitter,
	})
	k.AddDevice(r)
	return k, r
}

func TestSeedsWithProfilePrior(t *testing.T) {
	_, r := newRadioRig(t, false)
	e := NewActivationEstimator(r, 0)
	if e.Estimate() != units.Joules(9.5) {
		t.Fatalf("prior = %v, want 9.5 J", e.Estimate())
	}
}

func TestObserveEWMA(t *testing.T) {
	e := &ActivationEstimator{alphaPct: 50, estimate: units.Joules(10)}
	e.Observe(units.Joules(8))
	if e.Estimate() != units.Joules(9) {
		t.Fatalf("after one obs = %v, want 9 J", e.Estimate())
	}
	e.Observe(units.Joules(9))
	if e.Estimate() != units.Joules(9) {
		t.Fatalf("stable obs moved estimate to %v", e.Estimate())
	}
	e.Observe(0) // ignored
	if e.Estimate() != units.Joules(9) {
		t.Fatalf("a zero-cost episode moved the estimate to %v", e.Estimate())
	}
}

func TestConvergesOnMeasuredEpisodes(t *testing.T) {
	// Drive 15 jittered activations; the estimate must settle inside
	// the observed envelope and within ≈1 J of the sample mean.
	k, r := newRadioRig(t, true)
	e := NewActivationEstimator(r, 30)
	var sum units.Energy
	var n int
	min, max := units.MaxEnergy, units.Energy(0)
	r.OnEpisode(func(cost units.Energy) {
		// Chain: estimator subscribed first is replaced by this hook,
		// so re-feed it manually while also accumulating the mean and
		// the observed envelope.
		e.Observe(cost)
		sum += cost
		n++
		min = units.Min(min, cost)
		if cost > max {
			max = cost
		}
	})
	for i := 0; i < 15; i++ {
		at := units.Second + units.Time(i)*40*units.Second
		k.Eng.At(at, func(eng *sim.Engine) {
			r.Send(eng.Now(), 1, nil, label.Priv{})
		})
	}
	k.Run(15 * 40 * units.Second)
	if n != 15 {
		t.Fatalf("episodes = %d, want 15", n)
	}
	mean := sum / units.Energy(n)
	diff := e.Estimate() - mean
	if diff < 0 {
		diff = -diff
	}
	if diff > units.Joule {
		t.Fatalf("estimate %v vs sample mean %v: off by %v", e.Estimate(), mean, diff)
	}
	if e.Estimate() < min || e.Estimate() > max {
		t.Fatalf("estimate %v outside observed [%v, %v]", e.Estimate(), min, max)
	}
}

func TestNetdUsesEstimator(t *testing.T) {
	// netd configured with the online estimator still pools and fires;
	// after activations the threshold follows the estimator rather than
	// the static constant.
	k, r := newRadioRig(t, true)
	est := NewActivationEstimator(r, 25)
	n, err := netd.New(k, r, netd.Config{Cooperative: true, Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []units.Time{units.Second, 16 * units.Second} {
		if _, err := apps.NewPoller(k, k.Root, "p", k.KernelPriv(), k.Battery(), apps.PollerConfig{
			Interval: 60 * units.Second, Phase: phase,
			Rate: units.Milliwatts(99), ReqBytes: 300, RespBytes: 8 << 10,
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(6 * units.Minute)
	if r.Stats().Activations < 3 {
		t.Fatalf("activations = %d, want ≥3", r.Stats().Activations)
	}
	if est.Estimate() == units.Joules(9.5) {
		t.Fatal("the estimate never left the profile prior")
	}
	if n.Stats().PowerUps == 0 {
		t.Fatal("netd never fired with estimator-driven threshold")
	}
	// Estimate stays in the physical envelope.
	if est.Estimate() < units.Joules(8) || est.Estimate() > units.Joules(13) {
		t.Fatalf("estimate drifted to %v", est.Estimate())
	}
}
