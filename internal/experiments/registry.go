package experiments

import (
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/synth"
)

// InferencerByName looks an algorithm up by its paper name.
func InferencerByName(name string) (infer.Inferencer, bool) {
	for _, a := range engine.CategoricalInferencers() {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}

// Combo is one (inference, assignment) pair of Table 4.
type Combo struct{ Inference, Assignment string }

// Table4Combos returns every valid combination of Table 4: EAI works only
// with TDH, MB only with DOCS, QASCA with the probabilistic models, ME with
// everything.
func Table4Combos() []Combo {
	var out []Combo
	out = append(out, Combo{"TDH", "EAI"})
	out = append(out, Combo{"DOCS", "MB"})
	for _, ti := range []string{"TDH", "DOCS", "LCA", "POPACCU", "ACCU"} {
		out = append(out, Combo{ti, "QASCA"})
	}
	for _, a := range engine.CategoricalInferencers() {
		out = append(out, Combo{a.Name(), "ME"})
	}
	return out
}

// HeadlineCombos are the five combinations plotted in Figures 8–10 (the
// best or second-best per assigner).
func HeadlineCombos() []Combo {
	return []Combo{
		{"TDH", "EAI"},
		{"VOTE", "ME"},
		{"LCA", "ME"},
		{"DOCS", "MB"},
		{"DOCS", "QASCA"},
	}
}

// datasets builds the two categorical datasets at the configured scale.
func datasets(cfg Config) []*data.Dataset {
	return []*data.Dataset{
		synth.BirthPlaces(synth.BirthPlacesConfig{Seed: cfg.Seed, Scale: cfg.Scale}),
		synth.Heritages(synth.HeritagesConfig{Seed: cfg.Seed, Scale: cfg.Scale}),
	}
}
