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
			"124e9cc7086c70d095e5bd4afa6e0e2e", "dbde769d16b8fa71e2ef5b8e87ec122b",
			"5226d4958a9face534a99e4bc4da98d7", "992cec8f9430615f5538c09ab7ac1ecd",
			"01b43a6839c299535c4ae363b042ee30", "60ec6e89563f087426d556de67b1735a"}},
	{"adversarial", Config{Devices: 6, Seed: 1, Duration: 2 * units.Hour, Scenario: AdversarialCohorts()},
		[6]string{
			"9095b11dd658ad10ba935f160d03ecb4", "b3742ac0172282359d4e47740ba3fd64",
			"48208f3ac4e7077522eb83c60dc87266", "2ba160edc9dd6e6dffd21a1210f3d04c",
			"3ac0b35299bd1f29085f4ddd37382869", "fb19945bafc591e796228a883199df7a"}},
	{"daymix", Config{Devices: 8, Seed: 1, Duration: 26 * units.Hour, Scenario: DayInTheLife(),
		BatteryCapacity: units.Joules(67000)},
		[6]string{
			"ef9c189830e73bb1ee30317a098db58b", "44007cdf74c2e9a834c3b2706fae8e84",
			"f20a966c19a2751992817d7c2956fae1", "faeb1c895884f5ce2bcb82fe579a1887",
			"60a1b449a897d26b5dcb945d23a3f0af", "ec728729c91eb959b6b2a3823e612ae8"}},
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
