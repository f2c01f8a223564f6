package fleet

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"testing"

	"repro/internal/units"
)

// reportPin is one small run and the md5 of every report rendering of
// it: full and canonical JSON with and without the results array, and
// the full and canonical NDJSON streams (one line per device).
type reportPin struct {
	name string
	cfg  Config
	// json, jsonResults, canonical, canonicalResults, ndjson and
	// canonicalNDJSON, in that order.
	md5s [6]string
}

// reportPins cover every omitempty report, bucket and device field both
// set and unset: the month run recharges and settles charger quanta, the
// adversarial run reclaims hoarded energy, and the day mix loads pages,
// sends SMS and places calls on a battery that two of its eight devices
// exhaust.
var reportPins = []reportPin{
	{"month", Config{Devices: 6, Seed: 1, Duration: 26 * units.Hour, Scenario: MonthInTheLife()},
		[6]string{
			"4ae63418baad370d7fb18bcf9dedc9d3", "82076e561d72474de941652e3a60e6f4",
			"5226d4958a9face534a99e4bc4da98d7", "992cec8f9430615f5538c09ab7ac1ecd",
			"1d9932879ba3cf67954728d91764c641", "60ec6e89563f087426d556de67b1735a"}},
	{"adversarial", Config{Devices: 6, Seed: 1, Duration: 2 * units.Hour, Scenario: AdversarialCohorts()},
		[6]string{
			"7f24496b8858a2b572b79096f0cdcbef", "0dc95f441242f23872ef0c9be9962965",
			"48208f3ac4e7077522eb83c60dc87266", "2ba160edc9dd6e6dffd21a1210f3d04c",
			"c40864168423ac79a9213c1758ab56d0", "fb19945bafc591e796228a883199df7a"}},
	{"daymix", Config{Devices: 8, Seed: 1, Duration: 26 * units.Hour, Scenario: DayInTheLife(),
		BatteryCapacity: units.Joules(67000)},
		[6]string{
			"a6f84f7f255cb8bd1da61352605cf527", "003a5f36b6ecfcc15ce46af567dcbaa5",
			"f20a966c19a2751992817d7c2956fae1", "faeb1c895884f5ce2bcb82fe579a1887",
			"610605f634ec9d1090434c77365af7d9", "ec728729c91eb959b6b2a3823e612ae8"}},
}

// TestReportBytesPinned: the report's wire bytes — every JSON rendering
// and the per-device NDJSON stream — match their pins, so a change to
// how a report is marshalled cannot move a byte unnoticed. A change
// meant to alter the schema re-pins here and says so.
func TestReportBytesPinned(t *testing.T) {
	for _, pin := range reportPins {
		cfg := pin.cfg
		cfg.KeepResults = true
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		var got [6]string
		for i, render := range []func(bool) ([]byte, error){rep.JSON, rep.CanonicalJSON} {
			for j, perDevice := range []bool{false, true} {
				b, err := render(perDevice)
				if err != nil {
					t.Fatal(err)
				}
				got[2*i+j] = md5hex(b)
			}
		}
		for i, canonical := range []bool{false, true} {
			var stream bytes.Buffer
			for _, d := range rep.Results {
				line, err := d.NDJSON(canonical)
				if err != nil {
					t.Fatal(err)
				}
				stream.Write(line)
				stream.WriteByte('\n')
			}
			got[4+i] = md5hex(stream.Bytes())
		}
		// Canonical rendering zeroes diagnostics on a copy: the
		// report itself still renders its full bytes.
		if again, err := rep.JSON(false); err != nil || md5hex(again) != got[0] {
			t.Errorf("%s: full JSON changed after a canonical rendering", pin.name)
		}
		if got != pin.md5s {
			t.Errorf("%s: report md5s %q, pinned %q", pin.name, got, pin.md5s)
		}
	}
}

func md5hex(b []byte) string {
	sum := md5.Sum(b)
	return hex.EncodeToString(sum[:])
}
