package engine

import (
	"fmt"
	"strings"

	"repro/internal/assign"
	"repro/internal/infer"
	"repro/internal/multitruth"
	"repro/internal/numeric"
)

// CategoricalInferencers returns the ten single-truth algorithms of the
// paper's Table 3 in row order. This is the canonical list — the
// experiments package's InferencersInPaperOrder delegates here.
func CategoricalInferencers() []infer.Inferencer {
	return []infer.Inferencer{
		infer.NewTDH(),
		infer.Vote{},
		infer.LCA{},
		infer.DOCS{},
		infer.ASUMS{},
		infer.MDC{},
		infer.Accu{DetectDependence: true},
		infer.PopAccu{},
		infer.LFC{},
		infer.CRH{},
	}
}

// numericEstimators returns the numeric algorithms of the paper's Table 6
// (plus MEDIAN, their shared initialization).
func numericEstimators() []numeric.Estimator {
	return []numeric.Estimator{
		numeric.CRH{},
		numeric.CATD{},
		numeric.Mean{},
		numeric.Median{},
		numeric.Vote{},
	}
}

// multiTruthDiscoverers returns the multi-truth algorithms of Section 5.7.
func multiTruthDiscoverers() []multitruth.Discoverer {
	return []multitruth.Discoverer{
		multitruth.LTM{},
		multitruth.DART{},
		multitruth.LFCMT{},
	}
}

// Inferencers lists the valid inference algorithm names for a truth model,
// default first.
func Inferencers(model TruthModel) []string {
	var out []string
	switch model {
	case Numeric:
		for _, e := range numericEstimators() {
			out = append(out, e.Name())
		}
	case MultiTruth:
		for _, d := range multiTruthDiscoverers() {
			out = append(out, d.Name())
		}
	default:
		for _, a := range CategoricalInferencers() {
			out = append(out, a.Name())
		}
	}
	return out
}

// Assigners lists the valid task-assignment algorithm names for a truth
// model, default first. EAI and MB read model internals only the
// categorical engines produce (the fitted *core.Model / *infer.DOCSState),
// so the non-categorical models run the generic confidence-based assigners.
func Assigners(model TruthModel) []string {
	switch model {
	case Numeric, MultiTruth:
		return []string{"ME", "QASCA"}
	}
	return []string{"EAI", "QASCA", "ME", "MB"}
}

// DefaultInferencer is the create-time default algorithm per truth model.
func DefaultInferencer(model TruthModel) string { return Inferencers(model)[0] }

// DefaultAssigner is the create-time default assigner per truth model.
func DefaultAssigner(model TruthModel) string { return Assigners(model)[0] }

// New constructs the engine for (truth model, inference algorithm name).
// Unknown names report the valid ones, so the campaign API can serve the
// message as a 422 body.
func New(model TruthModel, name string, cfg Config) (Engine, error) {
	switch model {
	case Numeric:
		for _, e := range numericEstimators() {
			if e.Name() == name {
				return NewNumeric(e), nil
			}
		}
	case MultiTruth:
		for _, d := range multiTruthDiscoverers() {
			if d.Name() == name {
				return NewMultiTruth(d), nil
			}
		}
	default:
		for _, a := range CategoricalInferencers() {
			if a.Name() == name {
				return NewCategorical(a), nil
			}
		}
	}
	return nil, fmt.Errorf("unknown inferencer %q for truth model %s (valid: %s)",
		name, model, strings.Join(Inferencers(model), ", "))
}

// NewAssigner constructs the task assigner by name, restricted to the
// truth model's valid set.
func NewAssigner(model TruthModel, name string) (assign.Assigner, error) {
	for _, n := range Assigners(model) {
		if n != name {
			continue
		}
		switch name {
		case "EAI":
			return assign.EAI{}, nil
		case "QASCA":
			return assign.QASCA{}, nil
		case "ME":
			return assign.ME{}, nil
		case "MB":
			return assign.MB{}, nil
		}
	}
	return nil, fmt.Errorf("unknown assigner %q for truth model %s (valid: %s)",
		name, model, strings.Join(Assigners(model), ", "))
}
