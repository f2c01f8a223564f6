package experiments

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/fleet"
	"repro/internal/units"
)

// MonthInTheLifeOptions parameterizes the month-in-the-life fleet
// experiment.
type MonthInTheLifeOptions struct {
	// Devices is the mixed-hardware fleet size.
	Devices int
	// Seed is the fleet master seed.
	Seed int64
}

// DefaultMonthInTheLifeOptions returns the registered scale: 48 devices
// over thirty simulated days — the same device-day volume as the week
// experiment, spent on depth instead of width.
func DefaultMonthInTheLifeOptions() MonthInTheLifeOptions {
	return MonthInTheLifeOptions{Devices: 48, Seed: 11}
}

// MonthInTheLife is the recharge-cycle experiment: a mixed population
// of Dream phones and T60p laptops lives through thirty days of nightly
// (and, for laptops, desk-bound daily) charging, metered browsing
// against a monthly byte plan, and the occasional forgotten charger.
// The checks pin what the month machinery must deliver — non-monotone
// batteries with exact charger accounting, hardware classes coexisting
// in one fleet, closed-form charging matching the reference, and
// checkpoint/resume staying byte-exact through in-progress charge
// windows.
func MonthInTheLife(opts MonthInTheLifeOptions) Result {
	res := Result{
		ID:    "monthinthelife",
		Title: "Month-in-the-life fleet (recharge cycles, mixed hardware, metered data)",
	}
	if opts.Devices <= 0 {
		opts.Devices = DefaultMonthInTheLifeOptions().Devices
	}
	if opts.Seed == 0 {
		opts.Seed = DefaultMonthInTheLifeOptions().Seed
	}
	month := 30 * 24 * units.Hour
	cfg := fleet.Config{
		Devices:  opts.Devices,
		Seed:     opts.Seed,
		Duration: month,
		Workers:  2,
		Scenario: fleet.MonthInTheLife(),
	}
	rep, err := fleet.Run(cfg)
	if err != nil {
		res.Headline = "fleet run failed: " + err.Error()
		res.Checks = append(res.Checks, check("fleet runs", "completes", false, "%v", err))
		return res
	}

	tbl := Table{
		Title:  fmt.Sprintf("Month cohorts, %d devices × 30 d (seed %d)", opts.Devices, opts.Seed),
		Header: []string{"cohort", "devices", "mean drawn", "recharged", "deaths", "pages", "polls"},
	}
	buckets := map[string]fleet.Bucket{}
	for _, b := range rep.Buckets {
		buckets[b.Name] = b
		tbl.Rows = append(tbl.Rows, []string{
			b.Name, fmt.Sprint(b.Devices), b.MeanConsumed.String(), b.Recharged.String(),
			fmt.Sprint(b.Dead), fmt.Sprint(b.Pages), fmt.Sprint(b.Polls),
		})
	}
	res.Tables = append(res.Tables, tbl)

	// Shape check 1: the battery is non-monotone at scale — charger
	// credits land fleet-wide, and a month of nightly charging keeps the
	// population overwhelmingly alive (forgotten nights may strand a few
	// small batteries, mass death would mean the chargers never engaged).
	res.Checks = append(res.Checks, check(
		"recharge cycles sustain the month",
		"charger credits > 0, deaths < fleet/4",
		rep.TotalRecharged > 0 && rep.Dead < rep.Devices/4,
		"recharged %v, %d/%d dead", rep.TotalRecharged, rep.Dead, rep.Devices))

	// Shape check 2: hardware classes coexist — the 1-in-8 T60p draw
	// puts laptops and phones in the same run, and the laptops' bigger
	// draw and desk charging show up as a distinct cohort.
	lap, okL := buckets["month-laptop"]
	phones := 0
	for name, b := range buckets {
		if name != "month-laptop" {
			phones += b.Devices
		}
	}
	res.Checks = append(res.Checks, check(
		"mixed hardware in one fleet",
		"T60p laptops and Dream phones both present",
		okL && lap.Devices > 0 && phones > 0,
		"%d laptops, %d phones", lap.Devices, phones))

	// Shape check 3: the monthly byte plan bites — metered browsing is
	// all-or-nothing, so the fleet loads pages but fewer than the
	// unmetered schedule would demand (refused pages consume think time
	// without loading).
	pages := pagesOf(rep)
	res.Checks = append(res.Checks, check(
		"metered data plan engages",
		"pages loaded, browsing present in phone and laptop cohorts",
		pages > 0 && lap.Pages > 0,
		"%d pages total, %d on laptops", pages, lap.Pages))

	// Shape check 4: closed-form charge settlement is exact — a 26 h
	// slice (one overnight charge window, 22:30 + 7 h spanning
	// midnight) of two devices produces byte-identical canonical
	// reports under the reference configuration, which credits every
	// quantum on a fixed-tick engine.
	refOK := false
	refDetail := ""
	{
		small := cfg
		small.Devices = 2
		small.Duration = 26 * units.Hour
		closed, err1 := fleet.Run(small)
		small.Reference = true
		ref, err2 := fleet.Run(small)
		if err1 == nil && err2 == nil {
			a, _ := closed.CanonicalJSON(false)
			b, _ := ref.CanonicalJSON(false)
			refOK = closed.TotalRecharged > 0 && bytes.Equal(a, b)
			refDetail = fmt.Sprintf("recharged %v, identical=%v", closed.TotalRecharged, bytes.Equal(a, b))
		} else {
			refDetail = fmt.Sprintf("%v / %v", err1, err2)
		}
	}
	res.Checks = append(res.Checks, check(
		"closed-form charge settlement is exact",
		"charge credited; canonical JSON byte-identical to the reference",
		refOK, "%s", refDetail))

	// Shape check 5: checkpoint/resume invariance with chargers in
	// play — day-boundary snapshots land inside overnight charge windows
	// (22:30 + 7 h spans midnight by design) and must still reproduce
	// the uninterrupted bytes.
	ckptOK := false
	detail := ""
	if dir, err := os.MkdirTemp("", "cinder-month-ckpt"); err == nil {
		defer os.RemoveAll(dir)
		small := cfg
		small.Devices = 12
		small.Duration = 4 * 24 * units.Hour
		plain, err1 := fleet.Run(small)
		small.CheckpointDir = dir
		ckpt, err2 := fleet.Run(small)
		if err1 == nil && err2 == nil {
			a, _ := plain.CanonicalJSON(false)
			b, _ := ckpt.CanonicalJSON(false)
			ckptOK = bytes.Equal(a, b)
			detail = fmt.Sprintf("identical=%v", ckptOK)
		} else {
			detail = fmt.Sprintf("%v / %v", err1, err2)
		}
	}
	res.Checks = append(res.Checks, check(
		"checkpointed month equals uninterrupted month",
		"canonical JSON byte-identical through mid-charge snapshots",
		ckptOK, "%s", detail))

	res.Headline = fmt.Sprintf(
		"%d-device month: recharged %v over 30 d, %d dead, %d laptops among %d phones, %d pages",
		rep.Devices, rep.TotalRecharged, rep.Dead, lap.Devices, phones, pages)
	return res
}
