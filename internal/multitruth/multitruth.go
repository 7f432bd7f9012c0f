// Package multitruth implements the multi-truth discovery algorithms the
// paper compares against in Section 5.7 — LTM, DART and LFC-MT — plus the
// adapter that turns any single-truth result into a multi-truth answer set
// (the value and its ancestors).
package multitruth

import (
	"repro/internal/data"
	"repro/internal/infer"
)

// Discoverer is a multi-truth discovery algorithm: it outputs, per object,
// the SET of values it believes true.
type Discoverer interface {
	Name() string
	Discover(idx *data.Index) map[string][]string
}

// FromSingleTruth adapts a single-truth inferencer: the estimated truth
// plus all its proper ancestors form the multi-truth set (the evaluation
// protocol of Section 5.7).
type FromSingleTruth struct {
	Inf infer.Inferencer
}

// Name implements Discoverer.
func (f FromSingleTruth) Name() string { return f.Inf.Name() }

// Discover implements Discoverer.
func (f FromSingleTruth) Discover(idx *data.Index) map[string][]string {
	res := f.Inf.Infer(idx)
	out := make(map[string][]string, len(res.Truths))
	for o, v := range res.Truths {
		set := []string{v}
		// Emit only ancestors that are themselves candidate values: a
		// multi-truth answer is a subset of the claimed values, and
		// unclaimed closure levels are not answerable by any algorithm.
		if ov := idx.View(o); ov != nil {
			if vi, ok := ov.CI.Pos(v); ok {
				for _, ai := range ov.CI.Anc(vi) {
					set = append(set, ov.CI.Values[ai])
				}
			}
		}
		out[o] = set
	}
	return out
}

// claimersOf returns, for one view of idx, the boolean claim matrix:
// providers × candidate values (true where the provider claimed the value
// or, when closure is set, an ancestor-closed version where claiming v also
// claims every candidate ancestor of v). A provider with several claims on
// the object — a worker who answered a multi-truth campaign with a value
// SET — contributes ONE row with every claimed cell set, not one row per
// value: the discoverers model a provider claiming a set, and splitting the
// set into contradictory single-cell observations would bias them against
// exactly the multi-valued answers they exist to aggregate.
func claimersOf(idx *data.Index, ov *data.ObjectView, closure bool) (providers []string, claims [][]bool) {
	type cl struct {
		name string
		c    int
	}
	// Claim slices are sorted by dense ID (= sorted-name order, with claims
	// of one provider adjacent) and "s:" sorts before "w:", so appending
	// sources then workers is already the deterministic prefixed-name order.
	var cls []cl
	for _, c := range ov.SourceClaims {
		cls = append(cls, cl{"s:" + idx.SourceNames[c.Part], int(c.Val)})
	}
	for _, c := range ov.WorkerClaims {
		cls = append(cls, cl{"w:" + idx.WorkerNames[c.Part], int(c.Val)})
	}
	n := ov.CI.NumValues()
	for i := 0; i < len(cls); {
		row := make([]bool, n)
		j := i
		for ; j < len(cls) && cls[j].name == cls[i].name; j++ {
			row[cls[j].c] = true
			if closure {
				for _, a := range ov.CI.Anc(cls[j].c) {
					row[a] = true
				}
			}
		}
		providers = append(providers, cls[i].name)
		claims = append(claims, row)
		i = j
	}
	return providers, claims
}
