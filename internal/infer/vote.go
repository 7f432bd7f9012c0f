package infer

import "repro/internal/data"

// Vote is the majority-vote baseline: the value claimed by the most
// providers wins. Confidences are vote shares. Trust is each provider's
// agreement rate with the majority outcome.
type Vote struct{}

// Name implements Inferencer.
func (Vote) Name() string { return "VOTE" }

// Infer implements Inferencer.
func (Vote) Infer(idx *data.Index) *Result {
	res, tab := newResult(idx)
	for oid, ov := range idx.Views {
		conf := tab.Row(oid)
		for _, cl := range claimsOf(idx, oid) {
			conf[cl.c]++
		}
		normalize(conf)
		// Majority with ties broken toward the MORE GENERAL value: with no
		// reliability model, the safer of two equally-supported values is
		// the ancestor. This reproduces the paper's observation that VOTE
		// tends to output generalized truths (high GenAccuracy, lower
		// Accuracy).
		bi, best, bestP, bestD := -1, "", -1.0, 1<<30
		for i, p := range conf {
			v := ov.CI.Values[i]
			d := 0
			if idx.DS.H != nil {
				d = idx.DS.H.Depth(v)
			}
			if p > bestP+1e-15 || (p > bestP-1e-15 && (d < bestD || (d == bestD && (best == "" || v < best)))) {
				bi, best, bestP, bestD = i, v, p, d
			}
		}
		tab.SetTruth(oid, bi)
	}
	res.Truths = tab.truthMap()
	// Agreement-rate trust (informational only; VOTE never uses it).
	agree := map[provider][2]int{}
	for oid := range idx.Views {
		for _, cl := range claimsOf(idx, oid) {
			a := agree[cl.p]
			a[1]++
			if int32(cl.c) == tab.truth[oid] {
				a[0]++
			}
			agree[cl.p] = a
		}
	}
	//tdh:orderok setTrust writes one keyed entry per provider; iteration order is immaterial
	for p, a := range agree {
		if a[1] > 0 {
			res.setTrust(p, float64(a[0])/float64(a[1]))
		}
	}
	return res
}
