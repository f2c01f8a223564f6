package netquota

import (
	"bytes"
	"testing"

	"repro/internal/label"
	"repro/internal/snap"
	"repro/internal/units"
)

func planSnap(t *testing.T, p *Plan) []byte {
	t.Helper()
	b, err := snap.Save(p.Codec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// buildMeteredPlan is the deterministic construction path both sides of
// the round trip share: a plan with a granted browser allowance and a
// trickle-fed background allowance, mirroring how a fleet scenario's
// Build re-creates the plan before the load overlays the snapshot.
func buildMeteredPlan(t *testing.T) (*Plan, *Allowance, *Allowance) {
	t.Helper()
	p, _ := newPlan(t, 100*Mebibyte)
	browser, err := p.NewAllowance("browser", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Grant(browser, 20*Mebibyte); err != nil {
		t.Fatal(err)
	}
	bg, err := p.NewAllowance("background", ByteRate(Kibibyte))
	if err != nil {
		t.Fatal(err)
	}
	return p, browser, bg
}

func TestPlanSnapshotRoundTrip(t *testing.T) {
	p, browser, _ := buildMeteredPlan(t)
	if err := browser.Charge(label.Priv{}, 3*Mebibyte); err != nil {
		t.Fatal(err)
	}
	p.Flow(10 * units.Second) // accrue trickle carry into the background tap
	b := planSnap(t, p)

	p2, browser2, _ := buildMeteredPlan(t)
	if err := snap.Load(b, p2.Codec); err != nil {
		t.Fatal(err)
	}
	if lvl, _ := browser2.Level(label.Priv{}); lvl != 17*Mebibyte {
		t.Fatalf("restored browser level = %d, want 17 MiB", lvl)
	}
	if st, _ := browser2.Reserve.Stats(label.Priv{}); st.Consumed != 3*Mebibyte {
		t.Fatalf("restored browser used = %d, want 3 MiB", st.Consumed)
	}
	if p2.Used() != p.Used() {
		t.Fatalf("restored plan used = %d, original %d", p2.Used(), p.Used())
	}
	// The resume bar: re-serializing the restored plan reproduces the
	// snapshot byte for byte (levels, tap carries, accounting counters).
	if !bytes.Equal(planSnap(t, p2), b) {
		t.Fatal("re-snapshot of restored plan differs from original")
	}
}

func TestPlanRestoreRejectsStructuralDrift(t *testing.T) {
	// A rebuilt plan whose construction path created different
	// allowances must refuse the snapshot loudly — the graph restore
	// validates reserve names, so drift cannot surface as silently
	// misattributed byte balances.
	p, _, _ := buildMeteredPlan(t)
	b := planSnap(t, p)

	p2, _ := newPlan(t, 100*Mebibyte)
	if _, err := p2.NewAllowance("mailer", 0); err != nil {
		t.Fatal(err)
	}
	if err := snap.Load(b, p2.Codec); err == nil {
		t.Fatal("restore onto a structurally different plan succeeded")
	}
}
