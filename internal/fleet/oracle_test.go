package fleet

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/snap"
	"repro/internal/units"
)

// oracleSizes sizes TestSaveAgreesWithTrialLoad's devices for each
// built-in scenario, by its Scenarios() name, plus the dense mix: a few
// devices over a horizon that crosses the scenario's phases.
var oracleSizes = map[string]Config{
	"poller":         {Devices: 2, Duration: 30 * units.Minute},
	"idle":           {Devices: 2, Duration: 24 * units.Hour},
	"spinner":        {Devices: 1, Duration: 10 * units.Second},
	"dayinthelife":   {Devices: 6, Duration: 8 * units.Hour},
	"weekinthelife":  {Devices: 3, Duration: 26 * units.Hour},
	"monthinthelife": {Devices: 3, Duration: 26 * units.Hour},
	"adversarial":    {Devices: 4, Duration: 2 * units.Hour},
	"dense-mix":      {Devices: 4, Duration: 20 * units.Minute, Scenario: denseMix()},
	"dial-at-build":  {Devices: 1, Duration: 5 * units.Minute, Scenario: dialAtBuild{}},
}

// dialAtBuild places one call from a dialer built with the device, so
// only the baseband's call state stands in the way of a save mid-call.
type dialAtBuild struct{}

func (dialAtBuild) Name() string { return "dial-at-build" }

func (dialAtBuild) Build(d *Device) error {
	if _, err := d.EnsureSmdd(); err != nil {
		return err
	}
	k := d.Kernel
	_, err := apps.NewDialer(k, k.Root, k.KernelPriv(), k.Battery(),
		apps.DialerConfig{Number: "555-0100", Duration: units.Minute, Rate: units.Watts(1)})
	return err
}

// TestSaveAgreesWithTrialLoad: at every executed instant of the sized
// devices, a device record saves only if a device rebuilt from scratch
// loads it, and the loaded device saves the same bytes. Every section
// that refuses a load therefore refuses the matching save, which is
// what lets the epoch pass save each device at its first savable
// instant.
func TestSaveAgreesWithTrialLoad(t *testing.T) {
	names := []string{"dense-mix", "dial-at-build"}
	for name := range Scenarios() {
		if _, ok := oracleSizes[name]; !ok {
			t.Fatalf("scenario %q has no size: add one to oracleSizes", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := oracleSizes[name]
		if cfg.Scenario == nil {
			cfg.Scenario = Scenarios()[name]
		}
		cfg.Seed = 9
		t.Run(name, func(t *testing.T) {
			saved, refused := 0, 0
			var rg, trial rig
			for idx := 0; idx < cfg.Devices; idx++ {
				d, res, err := buildDevice(cfg, idx, &rg)
				if err != nil {
					t.Fatal(err)
				}
				d.Kernel.Run(0)
				for {
					blob, serr := snap.Save(d.codec)
					if serr != nil {
						refused++
					} else {
						saved++
						d2, _, err := buildDevice(cfg, idx, &trial)
						if err != nil {
							t.Fatal(err)
						}
						if lerr := snap.Load(blob, d2.codec); lerr != nil {
							t.Fatalf("device %d (%s) at %v: saved, but a rebuilt device refuses the load: %v",
								idx, d.Scenario, d.Kernel.Eng.Now(), lerr)
						}
						if again, _ := snap.Save(d2.codec); !bytes.Equal(again, blob) {
							t.Fatalf("device %d (%s) at %v: the loaded device saves other bytes",
								idx, d.Scenario, d.Kernel.Eng.Now())
						}
					}
					if res.Died || !stepInstant(d, cfg.Duration) {
						break
					}
				}
			}
			t.Logf("%d instants saved, %d refused", saved, refused)
			if saved == 0 {
				t.Fatal("no instant saved")
			}
		})
	}
}

// denseMix compresses every workload primitive into a 20-minute day so
// the differential test crosses calls, SMS bursts, browsing, pollers and
// screen sessions without simulating hours tick by tick.
func denseMix() Scenario {
	busy := Compose{
		Label: "busy",
		Phases: []Phase{
			{Workload: Screen{}, Start: 0, Duration: 4 * units.Minute, Jitter: units.Minute},
			{Workload: Pollers{Interval: units.Minute}, Start: 2 * units.Minute, Duration: 8 * units.Minute, Jitter: units.Minute},
			{Workload: Browse{Pages: 3}, Start: 5 * units.Minute, Duration: 4 * units.Minute, Jitter: units.Minute},
			{Workload: Call{CallTime: units.Minute}, Start: 11 * units.Minute, Duration: 2 * units.Minute, Jitter: units.Minute},
			{Workload: SMSBurst{Count: 2, Interval: 20 * units.Second}, Start: 15 * units.Minute, Duration: 3 * units.Minute, Jitter: units.Minute},
		},
	}
	quiet := Compose{
		Label: "quiet",
		Phases: []Phase{
			{Workload: Screen{}, Start: 3 * units.Minute, Duration: 2 * units.Minute, Jitter: units.Minute},
		},
	}
	return Mix{
		Label: "dense-mix",
		Entries: []MixEntry{
			{Weight: 3, Scenario: busy},
			{Weight: 1, Scenario: quiet},
		},
	}
}
