package experiments

import (
	"strings"
	"testing"
)

// requirePass runs an experiment and fails the test with the formatted
// report if any paper-vs-measured check fails.
func requirePass(t *testing.T, r Result) {
	t.Helper()
	if !r.Passed() {
		t.Fatalf("experiment %s failed checks:\n%s", r.ID, r.Format(false))
	}
	t.Log("\n" + r.Format(false))
}

func TestFig3(t *testing.T) {
	requirePass(t, Fig3RadioFlows(DefaultFig3Options()))
}

func TestFig4(t *testing.T) {
	requirePass(t, Fig4RadioActivation(DefaultFig4Options()))
}

func TestFig9(t *testing.T) {
	requirePass(t, Fig9Isolation(DefaultFig9Options()))
}

func TestFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("long: ~40 min simulated")
	}
	requirePass(t, Fig10ViewerNoScaling(DefaultViewerOptions(false)))
}

func TestFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs both viewers")
	}
	requirePass(t, Fig11ViewerScaling(DefaultViewerOptions(true)))
}

func TestFig12a(t *testing.T) {
	requirePass(t, Fig12Foreground(DefaultFig12aOptions()))
}

func TestFig12b(t *testing.T) {
	requirePass(t, Fig12Foreground(DefaultFig12bOptions()))
}

func TestTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("long: 2 × 1201 simulated seconds")
	}
	requirePass(t, Table1Cooperative(DefaultTable1Options()))
}

func TestGallery(t *testing.T) {
	requirePass(t, GraphGallery(false))
}

func TestBaselineComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("long: 20 simulated minutes")
	}
	requirePass(t, BaselineComparison(false))
}

func TestPowerModel(t *testing.T) {
	requirePass(t, PowerModel(false))
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"baseline", "fig10", "fig11", "fig12a", "fig12b", "fig3", "fig4", "fig9", "gallery", "powermodel", "table1"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	if _, err := Run("fig9"); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Extended experiments resolve through Run but stay out of Names()
	// (and therefore out of the frozen -all output).
	extendedWant := []string{"fig13"}
	if strings.Join(ExtendedNames(), ",") != strings.Join(extendedWant, ",") {
		t.Fatalf("ExtendedNames() = %v, want %v", ExtendedNames(), extendedWant)
	}
	for _, n := range ExtendedNames() {
		if _, paper := registry[n]; paper {
			t.Fatalf("experiment %q registered as both paper artifact and extended", n)
		}
	}
}

func TestResultFormatting(t *testing.T) {
	r := Fig9Isolation(DefaultFig9Options())
	out := r.Format(true)
	for _, want := range []string{"fig9", "PASS", "Mean estimated power"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}
