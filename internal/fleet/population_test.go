package fleet

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/label"
	"repro/internal/power"
	"repro/internal/units"
)

// TestProvisionerRejectsFleetBatteryOverride pins the precedence fix: a
// scenario that provisions per-device batteries combined with a
// fleet-level override is a contradiction the run must refuse loudly —
// before the fix, the override silently flattened the heterogeneous
// population.
func TestProvisionerRejectsFleetBatteryOverride(t *testing.T) {
	for _, sc := range []Scenario{WeekInTheLife(), MonthInTheLife(), AdversarialCohorts()} {
		_, err := Run(Config{
			Devices:         4,
			Seed:            7,
			Duration:        time10s(),
			Workers:         1,
			Scenario:        sc,
			BatteryCapacity: 90 * units.Kilojoule,
		})
		if err == nil || !strings.Contains(err.Error(), "contradicts") {
			t.Fatalf("%s + fleet battery override: err = %v, want loud contradiction", sc.Name(), err)
		}
	}
}

func time10s() units.Time { return 10 * units.Second }

// provisionProbe is a minimal Provisioner that asks for laptop hardware
// and the strict anti-hoarding rule, then verifies from inside Build
// that both actually reached the kernel.
type provisionProbe struct {
	gotProfile string
	gotBattery units.Energy
	hoardErr   error
}

func (p *provisionProbe) Name() string { return "provision-probe" }

func (p *provisionProbe) Provision(_ int, _ int64) DeviceProvision {
	return DeviceProvision{Profile: power.LaptopT60p(), StrictHoarding: true}
}

func (p *provisionProbe) Build(d *Device) error {
	k := d.Kernel
	p.gotProfile = k.Profile.Name
	p.gotBattery = k.Graph.Capacity()
	// Behavioral check that StrictHoarding reached core.Config: a
	// reserve with an unremovable backward tap must refuse a transfer
	// into a fresh reserve that lacks one.
	taxed := k.CreateReserve(k.Root, "taxed", label.Public())
	fresh := k.CreateReserve(k.Root, "fresh", label.Public())
	tap, err := k.CreateTap(k.Root, "tax", k.KernelPriv(), taxed, k.Battery(), k.Battery().Label())
	if err != nil {
		return err
	}
	if err := tap.SetFrac(k.KernelPriv(), 1000); err != nil {
		return err
	}
	if err := k.Graph.Transfer(k.KernelPriv(), k.Battery(), taxed, units.Joule); err != nil {
		return err
	}
	p.hoardErr = k.Graph.Transfer(label.Priv{}, taxed, fresh, units.Joule)
	return Compose{Label: "probe"}.Build(d)
}

func TestProvisionAppliesProfileAndPolicy(t *testing.T) {
	probe := &provisionProbe{}
	if _, err := Run(Config{Devices: 1, Seed: 3, Duration: time10s(), Workers: 1, Scenario: probe}); err != nil {
		t.Fatal(err)
	}
	want := power.LaptopT60p()
	if probe.gotProfile != want.Name {
		t.Fatalf("provisioned profile %q did not reach the kernel (got %q)", want.Name, probe.gotProfile)
	}
	if probe.gotBattery != want.BatteryCapacity {
		t.Fatalf("provisioned battery = %v, want the T60p's %v", probe.gotBattery, want.BatteryCapacity)
	}
	if !errors.Is(probe.hoardErr, core.ErrHoarding) {
		t.Fatalf("evasive transfer err = %v, want ErrHoarding — StrictHoarding did not reach core.Config", probe.hoardErr)
	}
}

// TestMonthRechargeObservable asserts the month population actually
// exercises the new machinery, on TestScenarioVariants' month cell (16
// devices, seed 11, three days), so every variant the table runs
// crosses it: charger credits land over three nightly charge windows,
// one spanning midnight (non-monotone batteries), both hardware classes
// appear (seed 11 draws three T60p laptops), metered browsing loads
// pages on phones and laptops alike, and the nightly charge habit keeps
// the fleet overwhelmingly alive — the occasional death is expected
// (the forgetful-night draw can strand a small battery), mass death
// would mean the chargers never engaged.
func TestMonthRechargeObservable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day fleet run")
	}
	cfg := variantSizes["monthinthelife"]
	cfg.Scenario, cfg.Workers = MonthInTheLife(), 4
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRecharged == 0 {
		t.Fatal("no charger energy credited across three days of nightly charging")
	}
	var sawLaptop, sawPhone bool
	var pages, laptopPages int64
	for _, b := range rep.Buckets {
		pages += b.Pages
		if b.Name == "month-laptop" {
			sawLaptop = b.Devices > 0
			laptopPages = b.Pages
		} else if b.Devices > 0 {
			sawPhone = true
		}
	}
	if !sawLaptop || !sawPhone {
		t.Fatalf("population not mixed: laptop=%v phone=%v", sawLaptop, sawPhone)
	}
	if pages == 0 || laptopPages == 0 {
		t.Errorf("metered browsing loaded %d pages, %d of them on laptops", pages, laptopPages)
	}
	if rep.Dead > rep.Devices/4 {
		t.Fatalf("%d of %d devices died despite nightly charging", rep.Dead, rep.Devices)
	}
}

// TestAdversarialContainment is the §5.2.2 gate in miniature: with the
// fundamental rule on, the strict cohort's median lifetime recovers to
// within a few percent of the no-hoarder baseline, while the lax cohort
// (same adversary, rule off) dies measurably early and keeps the
// energy.
func TestAdversarialContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("150-device day run")
	}
	rep, err := Run(Config{
		Devices:  150,
		Seed:     11,
		Duration: 24 * units.Hour,
		Workers:  4,
		Scenario: AdversarialCohorts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Bucket{}
	for _, b := range rep.Buckets {
		byName[b.Name] = b
	}
	victim, lax, strict := byName["adv-victim"], byName["adv-lax"], byName["adv-strict"]
	if victim.Devices == 0 || lax.Devices == 0 || strict.Devices == 0 {
		t.Fatalf("missing cohorts: victim=%d lax=%d strict=%d devices", victim.Devices, lax.Devices, strict.Devices)
	}
	// Every battery is sized to die inside the day, so the cohorts'
	// median lifetimes are directly comparable.
	if rep.Dead != rep.Devices {
		t.Errorf("%d of %d devices died in 24 h, want all", rep.Dead, rep.Devices)
	}
	// Uncontained hoarding costs real lifetime…
	if lax.LifeP50 >= victim.LifeP50*95/100 {
		t.Errorf("lax cohort p50 %v not measurably below victim %v — adversary toothless", lax.LifeP50, victim.LifeP50)
	}
	// …the strict rule claws it back…
	if strict.LifeP50 < victim.LifeP50*97/100 {
		t.Errorf("strict cohort p50 %v below 97%% of victim %v — containment failed", strict.LifeP50, victim.LifeP50)
	}
	// …because the tax reclaims what the hoarder can no longer hide.
	if strict.Reclaimed <= 2*lax.Reclaimed {
		t.Errorf("strict reclaimed %v not well above lax %v", strict.Reclaimed, lax.Reclaimed)
	}
	if victim.Reclaimed != 0 {
		t.Errorf("victim cohort reclaimed %v with no hoarder installed", victim.Reclaimed)
	}
}
