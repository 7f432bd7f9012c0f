package synth

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/hierarchy"
)

// SourceProfile describes one synthetic source: how many objects it claims
// and its three-way trustworthiness (exact / generalized / wrong), the
// quantity TDH estimates as φs.
type SourceProfile struct {
	Name   string
	Claims int
	PExact float64
	PGen   float64
	PWrong float64
}

// claimValue draws one claimed value for an object with gold value truth,
// following the generative story of the paper's Figure 3: exact with
// PExact; a random proper ancestor (below the root) with PGen; otherwise a
// wrong value. Wrong values concentrate on the object's shared distractor
// with probability distractorBias, modelling misinformation replicated
// across sources (which is what makes Pop2/Pop3 informative).
func claimValue(rng *rand.Rand, t *hierarchy.Tree, truth, distractor string, allNodes []string, p SourceProfile, distractorBias float64) string {
	r := rng.Float64()
	switch {
	case r < p.PExact:
		return truth
	case r < p.PExact+p.PGen:
		anc := t.Ancestors(truth)
		if len(anc) == 0 {
			return truth // depth-1 truths cannot be generalized
		}
		// Nearer ancestors are likelier: geometric preference.
		i := 0
		for i < len(anc)-1 && rng.Float64() < 0.45 {
			i++
		}
		return anc[i]
	default:
		if distractor != "" && rng.Float64() < distractorBias {
			return distractor
		}
		// Extraction errors are mostly local — the wrong city in the right
		// country — rather than uniformly random over the globe. Stay
		// within the truth's top-level subtree 3 times out of 4.
		if rng.Float64() < 0.75 {
			if v := nearbyWrong(rng, t, truth); v != "" {
				return v
			}
		}
		for tries := 0; tries < 16; tries++ {
			v := allNodes[rng.Intn(len(allNodes))]
			if v != truth && !t.IsAncestor(v, truth) {
				return v
			}
		}
		return allNodes[rng.Intn(len(allNodes))]
	}
}

// nearbyWrong draws a wrong value from the truth's top-level subtree: walk
// down from the truth's depth-1 ancestor taking random children, and return
// the first node that neither equals the truth nor generalizes it.
func nearbyWrong(rng *rand.Rand, t *hierarchy.Tree, truth string) string {
	path := t.PathToRoot(truth)
	if len(path) < 2 {
		return ""
	}
	cur := path[len(path)-2] // depth-1 ancestor
	for tries := 0; tries < 12; tries++ {
		kids := t.Children(cur)
		if len(kids) == 0 {
			break
		}
		cur = kids[rng.Intn(len(kids))]
		if rng.Float64() < 0.3 {
			break
		}
	}
	if cur != truth && !t.IsAncestor(cur, truth) && cur != t.Root() {
		return cur
	}
	return ""
}

// pickDistractor selects a plausible wrong value for an object: a sibling
// or cousin of the truth when possible so wrong values are confusable, as
// in real extraction errors.
func pickDistractor(rng *rand.Rand, t *hierarchy.Tree, truth string, allNodes []string) string {
	if p, ok := t.Parent(truth); ok {
		sibs := t.Children(p)
		if len(sibs) > 1 {
			for tries := 0; tries < 8; tries++ {
				s := sibs[rng.Intn(len(sibs))]
				if s != truth {
					return s
				}
			}
		}
	}
	for tries := 0; tries < 16; tries++ {
		v := allNodes[rng.Intn(len(allNodes))]
		if v != truth && !t.IsAncestor(v, truth) {
			return v
		}
	}
	return ""
}

// coverage draws, for a source claiming n objects out of objects, a random
// subset of size n (n clamped to len(objects)).
func coverage(rng *rand.Rand, objects []string, n int) []string {
	if n >= len(objects) {
		out := append([]string(nil), objects...)
		return out
	}
	perm := rng.Perm(len(objects))[:n]
	out := make([]string, n)
	for i, j := range perm {
		out[i] = objects[j]
	}
	return out
}

// topAncestor returns the depth-1 ancestor of v (its "continent"), used as
// the object's domain label for the domain-aware baselines.
func topAncestor(t *hierarchy.Tree, v string) string {
	path := t.PathToRoot(v)
	if len(path) < 2 {
		return v
	}
	return path[len(path)-2]
}

// anchorRecords guarantees that every object has at least one claim that is
// the truth or an ancestor of it. Real crawls have this property: even when
// specific locations conflict, some source names at least the right country
// (UNESCO lists the country of every heritage site; IMDb bios name the
// nation). Without an anchor an object is unanswerable for every algorithm
// AND for crowd workers, who select answers from the candidate set.
func anchorRecords(rng *rand.Rand, t *hierarchy.Tree, ds *data.Dataset, sourceName string, objects []string) {
	covered := map[string]bool{}
	for _, r := range ds.Records {
		truth := ds.Truth[r.Object]
		if r.Value == truth || t.IsAncestor(r.Value, truth) {
			covered[r.Object] = true
		}
	}
	for _, o := range objects {
		if covered[o] {
			continue
		}
		truth := ds.Truth[o]
		v := truth
		if anc := t.Ancestors(truth); len(anc) > 0 && rng.Float64() < 0.7 {
			v = anc[rng.Intn(len(anc))]
		}
		ds.Records = append(ds.Records, data.Record{Object: o, Source: sourceName, Value: v})
	}
}

// emitRecords generates the records of one source over its covered objects.
func emitRecords(rng *rand.Rand, t *hierarchy.Tree, ds *data.Dataset, p SourceProfile, objs []string, distractors map[string]string, allNodes []string, distractorBias float64) {
	for _, o := range objs {
		v := claimValue(rng, t, ds.Truth[o], distractors[o], allNodes, p, distractorBias)
		ds.Records = append(ds.Records, data.Record{Object: o, Source: p.Name, Value: v})
	}
}
