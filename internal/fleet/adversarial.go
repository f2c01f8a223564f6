package fleet

import (
	"repro/internal/core"
	"repro/internal/kobj"
	"repro/internal/label"
	"repro/internal/sched"
	"repro/internal/snap"
	"repro/internal/units"
)

// This file assembles the §5.2.2 adversarial population: a fleet where
// some devices run a hoarding application that grabs battery energy
// into a private stash and sits on it. The paper's defence is two-fold
// — backward proportional taps that tax application reserves back into
// the battery, and (because a hoarder can try to outrun the tax by
// transferring its balance into a fresh, untaxed reserve) the "more
// fundamental" rule that rejects transfers which would weaken the
// backward drain. The scenario splits the fleet into three cohorts so
// one run measures containment directly:
//
//   - adv-victim: a normal phone day, no hoarder. Its death times are
//     the baseline.
//   - adv-lax: the same day plus the hoarder app, with the fundamental
//     rule OFF. The hoarder's evasion transfers succeed, the stash
//     (created decay-exempt, modelling a reserve the global half-life
//     cannot reach) keeps everything, and the device starves itself.
//   - adv-strict: identical app, but the cohort is provisioned with
//     StrictHoarding — the per-cohort knob DeviceProvision carries into
//     kernel.Config. Every evasion transfer is rejected with
//     ErrHoarding, the balance stays in the taxed reserve, and the
//     backward tap reclaims it for the battery.
//
// Containment then reads straight out of the per-bucket report:
// adv-strict's Reclaimed is the hoarder energy returned to the battery,
// and its LifeP50 recovers toward adv-victim's while adv-lax dies
// early. DeviceResult.Reclaimed sums the policy tap's lifetime Moved
// with both hoard reserves' decay returns, so the metric is exact
// integer energy, identical under the reference configuration and
// across worker counts.

const (
	// advStream separates cohort/battery assignment from Build's
	// construction stream; Provision and Build derive the same values
	// from the device seed independently.
	advStream = 0x5EC5_22AD_0A17

	// Batteries draw from [30, 55) kJ — half a day to a day of the
	// Dream's 699 mW floor, so every cohort dies inside a 24 h horizon
	// and the death-time *delta* between cohorts is measurable.
	advBatteryBase = 30 * units.Kilojoule
	advBatterySpan = 25 * units.Kilojoule

	// advGreedRate is the hoarder's grab tap: a third of the baseline
	// floor, enough to pull a device's death hours earlier when the
	// energy never comes back.
	advGreedRate = units.Power(250_000) // 250 mW in µW

	// advTaxPPM is the policy's backward proportional tap on the
	// hoarder's reserve: 0.1 %/s (≈11.5 min half-life), the §5.2.1
	// backward-tap construction.
	advTaxPPM core.PPM = 1000

	// advEvadeEvery is the hoarder's evasion cadence: once a minute it
	// tries to move its whole balance into the untaxed stash.
	advEvadeEvery = units.Minute
)

// AdversarialCohorts returns the §5.2.2 containment scenario.
func AdversarialCohorts() Scenario { return advScenario{} }

// advScenario implements Scenario and Provisioner.
type advScenario struct{}

// Name implements Scenario.
func (advScenario) Name() string { return "adversarial" }

// advDraw derives the device's cohort and battery from its seed on the
// scenario's dedicated stream.
func advDraw(seed int64) (cohort int64, battery units.Energy) {
	r := newSplitmix(seed ^ advStream)
	cohort = r.Intn(10)
	battery = advBatteryBase + units.Energy(r.Intn(int64(advBatterySpan)))
	return cohort, battery
}

// Provision implements Provisioner: per-device batteries for everyone,
// and the fundamental anti-hoarding rule for the strict cohort only —
// the per-cohort kernel-policy split this scenario exists to measure.
func (advScenario) Provision(_ int, seed int64) DeviceProvision {
	cohort, battery := advDraw(seed)
	return DeviceProvision{
		BatteryCapacity: battery,
		StrictHoarding:  cohort >= 8,
	}
}

// Build implements Scenario: every cohort lives the same modest phone
// day; the hoarder cohorts run the hoarding app on top of it.
func (a advScenario) Build(d *Device) error {
	cohort, _ := advDraw(d.Seed)

	r := d.Rand
	screenHabit := 4*units.Minute + units.Time(r.Intn(int64(8*units.Minute)))
	phases := []Phase{
		{Workload: Screen{}, Start: 7*units.Hour + 30*units.Minute, Duration: screenHabit, Jitter: 30 * units.Minute},
		{Workload: Pollers{Interval: 5 * units.Minute}, Start: 8 * units.Hour, Duration: units.Hour, Jitter: 30 * units.Minute},
		{Workload: Screen{}, Start: 19 * units.Hour, Duration: screenHabit, Jitter: 2 * units.Hour},
	}

	var lbl string
	switch {
	case cohort < 6:
		lbl = "adv-victim"
	case cohort < 8:
		lbl = "adv-lax"
	default:
		lbl = "adv-strict"
	}
	if cohort >= 6 {
		if err := installHoarder(d); err != nil {
			return err
		}
	}
	d.Scenario = lbl
	return Compose{Label: lbl, Phases: phases}.Build(d)
}

// installHoarder sets up the adversary: a greedy constant tap pulling
// battery energy into a taxed reserve, the policy's backward
// proportional tap on that reserve, an untaxed decay-exempt stash, and
// a thread that periodically tries to move the balance across. Under
// StrictHoarding the move is refused and the tax wins; without it the
// stash fills and the energy is lost to the device.
func installHoarder(d *Device) error {
	k := d.Kernel
	ctr := kobj.NewContainer(k.Table, k.Root, label.Public())
	greed := k.CreateReserve(ctr, "hoard", label.Public())
	stash := k.CreateReserveOpts(ctr, "stash", label.Public(),
		core.ReserveOpts{DecayExempt: true})

	grab, err := k.CreateTap(ctr, "hoard-grab", k.KernelPriv(), k.Battery(), greed, label.Public())
	if err != nil {
		return err
	}
	if err := grab.SetRate(k.KernelPriv(), advGreedRate); err != nil {
		return err
	}
	// The policy tax. Its object label is the battery's (the kernel's
	// system category), so the hoarder's empty privileges cannot modify
	// or remove it — which is what makes the strict rule bite: a
	// backward tap the caller *could* remove is ignorable and would not
	// block the evasive transfer.
	tax, err := k.CreateTap(ctr, "hoard-tax", k.KernelPriv(), greed, k.Battery(), k.Battery().Label())
	if err != nil {
		return err
	}
	if err := tax.SetFrac(k.KernelPriv(), advTaxPPM); err != nil {
		return err
	}

	// The thread exists from install time, so a device rebuilt for a
	// resume has the same kernel objects as the one that was saved; its
	// next evasion instant lives in the hoarder and travels in a hook.
	h := &hoarder{g: k.Graph, greed: greed, stash: stash, every: advEvadeEvery}
	k.Sched.NewThread(ctr, "hoarder", label.Public(), label.Priv{},
		sched.RunnerFunc(h.step), greed)
	d.Hooks = append(d.Hooks, func(c *snap.Codec) {
		c.Section("hoarder")
		snap.Int(c, &h.next)
	})

	d.Probes = append(d.Probes, func(res *DeviceResult) {
		res.Reclaimed += tax.Stats().Moved
		if acc, err := greed.Stats(label.Priv{}); err == nil {
			res.Reclaimed += acc.Decayed
		}
		if acc, err := stash.Stats(label.Priv{}); err == nil {
			res.Reclaimed += acc.Decayed
		}
	})
	return nil
}

// hoarder is the evasion thread: every period it tries to transfer its
// whole taxed balance into the untaxed stash.
type hoarder struct {
	g     *core.Graph
	greed *core.Reserve
	stash *core.Reserve
	every units.Time
	next  units.Time
}

func (h *hoarder) step(now units.Time, th *sched.Thread) {
	if now < h.next {
		th.Sleep(h.next)
		return
	}
	h.next = now + h.every
	if lvl, err := h.greed.Level(label.Priv{}); err == nil && lvl > 0 {
		// Refused with ErrHoarding under the strict cohort's kernel.
		_, _ = h.g.TransferUpTo(label.Priv{}, h.greed, h.stash, lvl)
	}
	th.Sleep(h.next)
}
