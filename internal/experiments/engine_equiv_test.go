package experiments

import (
	"reflect"
	"testing"
)

// referenceRegistry runs every registered experiment, paper and
// extended, with its default options on the reference configuration
// (kernel.Config.Reference), the oracle production is checked against.
var referenceRegistry = map[string]Runner{
	"baseline": func() Result { return BaselineComparison(true) },
	"fig3": func() Result {
		o := DefaultFig3Options()
		o.Reference = true
		return Fig3RadioFlows(o)
	},
	"fig4": func() Result {
		o := DefaultFig4Options()
		o.Reference = true
		return Fig4RadioActivation(o)
	},
	"fig9": func() Result {
		o := DefaultFig9Options()
		o.Reference = true
		return Fig9Isolation(o)
	},
	"fig10": func() Result {
		o := DefaultViewerOptions(false)
		o.Reference = true
		return Fig10ViewerNoScaling(o)
	},
	"fig11": func() Result {
		o := DefaultViewerOptions(true)
		o.Reference = true
		return Fig11ViewerScaling(o)
	},
	"fig12a": func() Result {
		o := DefaultFig12aOptions()
		o.Reference = true
		return Fig12Foreground(o)
	},
	"fig12b": func() Result {
		o := DefaultFig12bOptions()
		o.Reference = true
		return Fig12Foreground(o)
	},
	"table1": func() Result {
		o := DefaultTable1Options()
		o.Reference = true
		return Table1Cooperative(o)
	},
	"fig13": func() Result {
		o := DefaultTable1Options()
		o.Reference = true
		return Fig13PollerAlignment(o)
	},
	"gallery":    func() Result { return GraphGallery(true) },
	"powermodel": func() Result { return PowerModel(true) },
}

// TestEngineEquivalence is the differential test behind the next-event
// engine and closed-form settlement: every registered experiment, paper
// and extended, must produce a byte-identical Result in production and
// on the reference configuration. Series contents, tables, headlines
// and check outcomes are all compared structurally and as formatted
// text. A missing reference runner fails the test: adding an experiment
// requires adding its reference twin. (The fleet scenarios have their
// own reference windows in internal/fleet.)
func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range append(Names(), ExtendedNames()...) {
		name := name
		t.Run(name, func(t *testing.T) {
			ref, ok := referenceRegistry[name]
			if !ok {
				t.Fatalf("experiment %q has no reference runner: add it to referenceRegistry", name)
			}
			got, err := Run(name)
			if err != nil {
				t.Fatal(err)
			}
			oracle := ref()
			if !reflect.DeepEqual(oracle, got) {
				t.Errorf("results diverge between the reference and production")
			}
			if want, text := oracle.Format(true), got.Format(true); text != want {
				t.Errorf("formatted output diverges:\n--- reference ---\n%s\n--- production ---\n%s", want, text)
			}
		})
	}
}
