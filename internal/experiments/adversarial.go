package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/fleet"
	"repro/internal/units"
)

// AdversarialOptions parameterizes the §5.2.2 containment experiment.
type AdversarialOptions struct {
	// Devices is the fleet size, split ~60/20/20 into victim, lax and
	// strict cohorts by per-device draw.
	Devices int
	// Seed is the fleet master seed.
	Seed int64
}

// DefaultAdversarialOptions returns the registered scale: three hundred
// devices over one simulated day.
func DefaultAdversarialOptions() AdversarialOptions {
	return AdversarialOptions{Devices: 300, Seed: 11}
}

// Adversarial measures the paper's §5.2.2 anti-hoarding containment on
// a population: every device's battery is sized to die within the day,
// a hoarding app grabs energy into a taxed reserve and tries once a
// minute to evade the backward tax by moving its balance into an
// untaxed stash. The lax cohort runs the adversary with the fundamental
// rule off (evasion succeeds, the device starves); the strict cohort is
// provisioned with kernel-level StrictHoarding (evasion rejected, the
// tax reclaims the hoard). Containment is the gap the checks pin: the
// strict cohort's median lifetime recovers to the no-hoarder baseline
// while the lax cohort dies hours early.
func Adversarial(opts AdversarialOptions) Result {
	res := Result{
		ID:    "adversarial",
		Title: "Adversarial cohorts (§5.2.2 anti-hoarding containment)",
	}
	if opts.Devices <= 0 {
		opts.Devices = DefaultAdversarialOptions().Devices
	}
	if opts.Seed == 0 {
		opts.Seed = DefaultAdversarialOptions().Seed
	}
	cfg := fleet.Config{
		Devices:  opts.Devices,
		Seed:     opts.Seed,
		Duration: 24 * units.Hour,
		Workers:  2,
		Scenario: fleet.AdversarialCohorts(),
	}
	rep, err := fleet.Run(cfg)
	if err != nil {
		res.Headline = "fleet run failed: " + err.Error()
		res.Checks = append(res.Checks, check("fleet runs", "completes", false, "%v", err))
		return res
	}

	tbl := Table{
		Title:  fmt.Sprintf("Containment, %d devices × 24 h (seed %d)", opts.Devices, opts.Seed),
		Header: []string{"cohort", "devices", "deaths", "life p50", "life p90", "reclaimed"},
	}
	buckets := map[string]fleet.Bucket{}
	for _, b := range rep.Buckets {
		buckets[b.Name] = b
		tbl.Rows = append(tbl.Rows, []string{
			b.Name, fmt.Sprint(b.Devices), fmt.Sprint(b.Dead),
			b.LifeP50.String(), b.LifeP90.String(), b.Reclaimed.String(),
		})
	}
	res.Tables = append(res.Tables, tbl)

	victim, okV := buckets["adv-victim"]
	lax, okL := buckets["adv-lax"]
	strict, okS := buckets["adv-strict"]

	// Shape check 1: the experiment's premise — every cohort present,
	// and the batteries sized so the whole fleet dies inside the
	// horizon, making median death times directly comparable.
	res.Checks = append(res.Checks, check(
		"cohorts complete their lifetimes",
		"victim/lax/strict all present, every device dies in 24 h",
		okV && okL && okS && rep.Dead == rep.Devices,
		"%d/%d dead (victim %d, lax %d, strict %d devices)",
		rep.Dead, rep.Devices, victim.Devices, lax.Devices, strict.Devices))

	// Shape check 2: the adversary has teeth — with the fundamental
	// rule off, evasion into the untaxed stash strands the energy and
	// the lax cohort dies measurably before the baseline.
	res.Checks = append(res.Checks, check(
		"uncontained hoarding costs lifetime",
		"lax p50 < 95% of victim p50",
		okV && okL && lax.LifeP50 < victim.LifeP50*95/100,
		"lax p50 %v vs victim %v", lax.LifeP50, victim.LifeP50))

	// Shape check 3: §5.2.2 containment — under StrictHoarding the
	// evasive transfer is rejected, the backward tax drains the hoard
	// back to the battery, and the strict cohort's median lifetime
	// recovers to within 3% of the no-hoarder baseline.
	res.Checks = append(res.Checks, check(
		"strict rule contains the hoarder",
		"strict p50 ≥ 97% of victim p50",
		okV && okS && strict.LifeP50 >= victim.LifeP50*97/100,
		"strict p50 %v vs victim %v", strict.LifeP50, victim.LifeP50))

	// Shape check 4: the mechanism, not just the outcome — reclaimed
	// energy (tax flow + hoard decay) is where the strict cohort's
	// recovered hours come from; the lax cohort loses the race and the
	// victim has nothing to reclaim.
	res.Checks = append(res.Checks, check(
		"reclamation accounts for the recovery",
		"strict reclaimed > 2× lax, victim reclaims 0",
		okS && okL && strict.Reclaimed > 2*lax.Reclaimed && victim.Reclaimed == 0,
		"reclaimed: strict %v, lax %v, victim %v",
		strict.Reclaimed, lax.Reclaimed, victim.Reclaimed))

	// Shape check 5: the measurement is engine-independent — the same
	// population at reduced scale produces byte-identical canonical
	// reports under the reference configuration.
	eqOK := false
	eqDetail := ""
	{
		small := cfg
		small.Devices = 40
		ref, err1 := fleet.Run(small)
		small.Reference = true
		ft, err2 := fleet.Run(small)
		if err1 == nil && err2 == nil {
			a, _ := ref.CanonicalJSON(false)
			b, _ := ft.CanonicalJSON(false)
			eqOK = bytes.Equal(a, b)
			eqDetail = fmt.Sprintf("identical=%v", eqOK)
		} else {
			eqDetail = fmt.Sprintf("%v / %v", err1, err2)
		}
	}
	res.Checks = append(res.Checks, check(
		"containment metrics are engine-exact",
		"canonical JSON byte-identical under the reference configuration",
		eqOK, "%s", eqDetail))

	res.Headline = fmt.Sprintf(
		"containment: victim p50 %v, lax %v (−%d%%), strict %v (−%d%%); reclaimed %v",
		victim.LifeP50, lax.LifeP50, pctBelow(lax.LifeP50, victim.LifeP50),
		strict.LifeP50, pctBelow(strict.LifeP50, victim.LifeP50), rep.TotalReclaimed)
	return res
}

// pctBelow returns how many percent a sits below b (0 when b is 0).
func pctBelow(a, b units.Time) int {
	if b <= 0 {
		return 0
	}
	return int(100 - 100*a/b)
}
