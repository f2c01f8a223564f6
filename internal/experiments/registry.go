package experiments

import (
	"fmt"
	"sort"
)

// Runner executes one experiment with default options.
type Runner func() Result

// registry maps paper-artifact experiment IDs to runners with default
// (paper-scale) options. This set — and therefore the byte-for-byte
// output of `cinder-sim -all` — is frozen: new experiments that go
// beyond the paper's figures register in `extended` instead, so the
// reproduction's regression baseline (an md5 over the full -all output)
// survives growth.
var registry = map[string]Runner{
	"baseline":   func() Result { return BaselineComparison(false) },
	"fig3":       func() Result { return Fig3RadioFlows(DefaultFig3Options()) },
	"fig4":       func() Result { return Fig4RadioActivation(DefaultFig4Options()) },
	"fig9":       func() Result { return Fig9Isolation(DefaultFig9Options()) },
	"fig10":      func() Result { return Fig10ViewerNoScaling(DefaultViewerOptions(false)) },
	"fig11":      func() Result { return Fig11ViewerScaling(DefaultViewerOptions(true)) },
	"fig12a":     func() Result { return Fig12Foreground(DefaultFig12aOptions()) },
	"fig12b":     func() Result { return Fig12Foreground(DefaultFig12bOptions()) },
	"table1":     func() Result { return Table1Cooperative(DefaultTable1Options()) },
	"gallery":    func() Result { return GraphGallery(false) },
	"powermodel": func() Result { return PowerModel(false) },
}

// extended maps the beyond-the-paper experiments: runnable by name
// (`cinder-sim -exp fig13`), listed separately, excluded from RunAll's
// frozen output. The fleet scenarios are not experiments: they run
// through `cinder-fleet -scenario`, and internal/fleet holds their
// checks.
var extended = map[string]Runner{
	"fig13": func() Result { return Fig13PollerAlignment(DefaultTable1Options()) },
}

// Names returns the paper-artifact experiment IDs, sorted. The set is
// frozen (see registry); ExtendedNames lists the rest.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ExtendedNames returns the beyond-the-paper experiment IDs, sorted.
func ExtendedNames() []string {
	out := make([]string, 0, len(extended))
	for n := range extended {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment (paper artifact or extended).
func Run(name string) (Result, error) {
	r, ok := registry[name]
	if !ok {
		r, ok = extended[name]
	}
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %v + %v)",
			name, Names(), ExtendedNames())
	}
	return r(), nil
}

// RunAll executes every experiment in name order.
func RunAll() []Result {
	var out []Result
	for _, n := range Names() {
		out = append(out, registry[n]())
	}
	return out
}
