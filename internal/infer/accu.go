package infer

import (
	"math"
	"sort"

	"repro/internal/data"
)

// Accu implements ACCU (Dong, Berti-Equille, Srivastava, PVLDB 2009):
// Bayesian truth discovery with source accuracies and, optionally, source
// dependence (copy) detection. Wrong values are assumed uniformly
// distributed over the |Vo|-1 non-true candidates.
//
// Vote count of value v: C(v) = Σ_{providers claiming v} I(p)·ln(n·A(p)/(1-A(p)))
// where n = |Vo|-1 and I(p) discounts probable copiers. Confidence is the
// softmax of vote counts; accuracies are re-estimated as the mean
// confidence of the provider's claims; iterate to fixpoint.
type Accu struct {
	// DetectDependence enables the pairwise copy analysis (ACCU proper;
	// false gives the independence-assuming variant).
	DetectDependence bool
	// MaxIter bounds the outer loop (default 20).
	MaxIter int
	// CopyRate c is the a-priori probability a copied value is copied
	// rather than independently provided (default 0.8, as in the paper).
	CopyRate float64
	// CopyPrior is the prior P(dependence) between a pair (default 0.1).
	CopyPrior float64
}

// Name implements Inferencer.
func (a Accu) Name() string {
	if a.DetectDependence {
		return "ACCU"
	}
	return "ACCU-NODEP"
}

const (
	accuInitTrust = 0.8
	accuMaxTrust  = 0.99
	accuMinTrust  = 0.01
)

// Infer implements Inferencer.
func (a Accu) Infer(idx *data.Index) *Result {
	if a.MaxIter == 0 {
		a.MaxIter = 20
	}
	if a.CopyRate == 0 {
		a.CopyRate = 0.8
	}
	if a.CopyPrior == 0 {
		a.CopyPrior = 0.1
	}
	res, tab := newResult(idx)
	trust := map[provider]float64{}
	for oid := range idx.Views {
		for _, cl := range claimsOf(idx, oid) {
			trust[cl.p] = accuInitTrust
		}
	}
	// Copier discount weights per (object ID, provider): probability the
	// provider supplied the value independently.
	var indep []map[provider]float64

	for iter := 0; iter < a.MaxIter; iter++ {
		if a.DetectDependence {
			indep = a.dependenceDiscount(idx, tab, trust, iter == 0)
		}
		maxDelta := 0.0
		for oid, ov := range idx.Views {
			conf := tab.Row(oid)
			n := float64(ov.CI.NumValues() - 1)
			if n < 1 {
				n = 1
			}
			score := make([]float64, len(conf))
			for _, cl := range claimsOf(idx, oid) {
				t := clampTrust(trust[cl.p])
				w := 1.0
				if a.DetectDependence {
					if iw, ok := indep[oid][cl.p]; ok {
						w = iw
					}
				}
				score[cl.c] += w * math.Log(n*t/(1-t))
			}
			// Softmax with max-shift for stability.
			mx := math.Inf(-1)
			for _, s := range score {
				if s > mx {
					mx = s
				}
			}
			z := 0.0
			for i, s := range score {
				score[i] = math.Exp(s - mx)
				z += score[i]
			}
			for i := range conf {
				v := score[i] / z
				if d := math.Abs(v - conf[i]); d > maxDelta {
					maxDelta = d
				}
				conf[i] = v
			}
		}
		// Re-estimate accuracies.
		sum := map[provider]float64{}
		cnt := map[provider]int{}
		for oid := range idx.Views {
			conf := tab.Row(oid)
			for _, cl := range claimsOf(idx, oid) {
				sum[cl.p] += conf[cl.c]
				cnt[cl.p]++
			}
		}
		for p := range trust {
			if cnt[p] > 0 {
				trust[p] = clampTrust(sum[p] / float64(cnt[p]))
			}
		}
		if maxDelta < 1e-6 {
			break
		}
	}
	//tdh:orderok setTrust writes one keyed entry per provider; iteration order is immaterial
	for p, t := range trust {
		res.setTrust(p, t)
	}
	res.finalize(tab)
	return res
}

func clampTrust(t float64) float64 {
	if t > accuMaxTrust {
		return accuMaxTrust
	}
	if t < accuMinTrust {
		return accuMinTrust
	}
	return t
}

// dependenceDiscount performs the pairwise copy analysis of ACCU: for every
// pair of providers sharing enough objects, the posterior probability of
// dependence is computed from how often they share values, with shared
// *false* values counting as much stronger evidence of copying than shared
// true values. Each claim's vote is then discounted by the probability the
// provider is independent on that object, I(p) = Π_{p' shares value}
// (1 - c·P(p' -> p)).
func (a Accu) dependenceDiscount(idx *data.Index, tab *Table, trust map[provider]float64, first bool) []map[provider]float64 {
	// Gather per-object claim lists once.
	type claim struct {
		p provider
		c int
	}
	objClaims := make([][]claim, len(idx.Views))
	for oid := range idx.Views {
		for _, cl := range claimsOf(idx, oid) {
			objClaims[oid] = append(objClaims[oid], claim{cl.p, cl.c})
		}
	}
	// Pair statistics: kt = #shared objects with same value that looks
	// true, kf = #shared with same value that looks false, kd = #shared
	// with different values.
	type pairKey struct{ a, b provider }
	type pairStat struct{ kt, kf, kd int }
	stats := map[pairKey]*pairStat{}
	for oid, cls := range objClaims {
		if len(cls) < 2 {
			continue
		}
		conf := tab.Row(oid)
		for i := 0; i < len(cls); i++ {
			for j := i + 1; j < len(cls); j++ {
				pi, pj := cls[i].p, cls[j].p
				k := pairKey{pi, pj}
				if pj.name < pi.name || (pj.name == pi.name && !pj.isWorker && pi.isWorker) {
					k = pairKey{pj, pi}
				}
				st := stats[k]
				if st == nil {
					st = &pairStat{}
					stats[k] = st
				}
				if cls[i].c != cls[j].c {
					st.kd++
				} else if !first && conf[cls[i].c] >= 0.5 {
					st.kt++
				} else if first {
					st.kt++ // before confidences exist, treat shares as true
				} else {
					st.kf++
				}
			}
		}
	}
	// Posterior dependence probability per pair (symmetric, as in ACCU's
	// simplification): shared false values are strong evidence.
	//   P(shared-true | dep)  = c + (1-c)·A²/ A   ≈ simplified constants
	// We use the standard ACCU likelihood with representative accuracy 0.8
	// and error space n = 10.
	dep := map[pairKey]float64{}
	const eA, eN = 0.8, 10.0
	pTrueIndep := eA * eA
	pFalseIndep := (1 - eA) * (1 - eA) / eN
	pDiffIndep := 1 - pTrueIndep - pFalseIndep
	pTrueDep := eA*a.CopyRate + pTrueIndep*(1-a.CopyRate)
	pFalseDep := (1-eA)*a.CopyRate + pFalseIndep*(1-a.CopyRate)
	pDiffDep := 1 - pTrueDep - pFalseDep
	for k, st := range stats {
		if st.kt+st.kf+st.kd < 2 {
			continue // too little overlap to judge
		}
		ld := float64(st.kt)*math.Log(pTrueDep) + float64(st.kf)*math.Log(pFalseDep) + float64(st.kd)*math.Log(pDiffDep)
		li := float64(st.kt)*math.Log(pTrueIndep) + float64(st.kf)*math.Log(pFalseIndep) + float64(st.kd)*math.Log(pDiffIndep)
		// P(dep | obs) with prior.
		num := a.CopyPrior * math.Exp(ld-math.Max(ld, li))
		den := num + (1-a.CopyPrior)*math.Exp(li-math.Max(ld, li))
		dep[k] = num / den
	}
	// Discount: iterate each object's claims; providers sharing a value
	// form a copy-suspect clique; more accurate providers are treated as
	// originals (processed first), per ACCU's ordering heuristic.
	out := make([]map[provider]float64, len(objClaims))
	for oid, cls := range objClaims {
		byVal := map[int][]claim{}
		for _, cl := range cls {
			byVal[cl.c] = append(byVal[cl.c], cl)
		}
		m := make(map[provider]float64, len(cls))
		//tdh:orderok cliques are disjoint (one claim per provider per object), so m writes are keyed
		for _, group := range byVal {
			if len(group) == 1 {
				m[group[0].p] = 1
				continue
			}
			sort.Slice(group, func(i, j int) bool {
				ti, tj := trust[group[i].p], trust[group[j].p]
				if ti != tj {
					return ti > tj
				}
				return group[i].p.name < group[j].p.name
			})
			for i, cl := range group {
				w := 1.0
				for j := 0; j < i; j++ {
					k := pairKey{cl.p, group[j].p}
					if group[j].p.name < cl.p.name || (group[j].p.name == cl.p.name && !group[j].p.isWorker && cl.p.isWorker) {
						k = pairKey{group[j].p, cl.p}
					}
					w *= 1 - a.CopyRate*dep[k]
				}
				m[cl.p] = w
			}
		}
		out[oid] = m
	}
	return out
}
