package experiments

import "sort"

// Runner maps experiment IDs to their drivers.
var Runner = map[string]func(Config) []*Report{
	"fig1":     func(c Config) []*Report { return []*Report{Fig1(c)} },
	"table3":   func(c Config) []*Report { return []*Report{Table3(c)} },
	"fig5":     func(c Config) []*Report { return []*Report{Fig5(c)} },
	"fig6":     Fig6,
	"fig7":     Fig7,
	"table4":   func(c Config) []*Report { return []*Report{Table4(c)} },
	"fig8":     Fig8to10,
	"fig11":    Fig11,
	"fig12":    Fig12,
	"fig13":    Fig13,
	"fig14":    Fig14to16,
	"fig17":    Fig17,
	"table5":   func(c Config) []*Report { return []*Report{Table5(c)} },
	"ablation": Ablation,
	"table6":   func(c Config) []*Report { return []*Report{Table6(c)} },
}

// IDs returns the experiment identifiers in a stable order.
func IDs() []string {
	out := make([]string, 0, len(Runner))
	for id := range Runner {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
