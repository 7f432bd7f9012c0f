package core

import (
	"math"

	"repro/internal/data"
)

// The claim model (Eqs. 1–4) evaluated over the precomputed tables of
// data.ObjectView: relationship classes, case-possibility masks, 1/|Go|,
// 1/|rest| and the popularity distributions are all index-time constants,
// and what a claim takes from its participant's θ is a partTab built once
// per pass, so the per-(claim, truth) probability is a handful of lookups
// and a multiply. The claim kernel (claimList) fills a claim's row for every
// truth at once and turns it into the claim's truth and class posteriors:
// the E-step's inner loop. Scalar variants serve the incremental EM and
// external callers.

// flatObject reports whether the whole object is handled by Eq. (2): no
// ancestor-descendant pair among its candidates (o ∉ OH), or the flat-model
// ablation. Eq. (2) merges the exact and generalized cases so that φ₂ is
// not underestimated on such objects.
//
//tdh:hotpath
func flatObject(m *Model, ov *data.ObjectView) bool {
	return m.Opt.FlatModel || !ov.Hier()
}

// caseScale renormalizes the trustworthiness mass over the relationship
// classes that are actually possible for a hypothesized truth: a truth with
// no candidate ancestors cannot receive generalized claims (θ₂ impossible)
// and a truth whose ancestors cover the whole candidate set cannot receive
// wrong claims (θ₃ impossible). Without the rescaling the claim
// distribution sums below one for such truths, which biases the EM and
// makes the task assigner's expected-accuracy estimates negative. The
// paper's Eq. (1) leaves these corner truths undefined (|Go(v*)| = 0 makes
// its second case 0/0); conditioning on the possible cases is the natural
// completion and reduces to Eq. (1) whenever all three cases exist.
//
//tdh:hotpath
func caseScale(theta [3]float64, genPossible, wrongPossible bool) float64 {
	s := theta[0]
	if genPossible {
		s += theta[1]
	}
	if wrongPossible {
		s += theta[2]
	}
	if s <= 0 {
		return 1
	}
	return 1 / s
}

// partTab is what the claim model takes from one participant's θ (φs or ψw)
// alone. θ is fixed for a whole pass over the claims, so the kernel builds
// one table per source and per worker per pass instead of one per claim.
type partTab struct {
	theta [3]float64
	// w[mask][k] = caseScale(θ, mask)·θ_{k+1}: the likelihood weight of a
	// class-(k+1) claim at a truth with possibility mask `mask` (Eqs. 1 and
	// 3), before its 1/|Go|, 1/|rest| or popularity factor. The wrong-class
	// weight is 0 where no wrong value exists.
	w [4][3]float64
	// split = θ1+θ2, the likelihood of the exact claim on a flat object
	// (Eq. 2), or 1 if that is not positive: the exact claim's mass splits
	// between classes 1 and 2 in proportion θ1:θ2 of it.
	split float64
	// one is the class posterior of a claim on a flat object with a single
	// candidate, whose truth posterior is [1] whatever θ and μ.
	one [3]float64
}

// newPartTab builds the table of a participant with trustworthiness θ.
//
//tdh:hotpath
func newPartTab(theta [3]float64) partTab {
	t := partTab{theta: theta, split: theta[0] + theta[1]}
	if t.split <= 0 {
		t.split = 1
	}
	t.one = [3]float64{theta[0] / t.split, theta[1] / t.split, 0}
	for mask := range t.w {
		sc := caseScale(theta, mask&1 != 0, mask&2 != 0)
		t.w[mask] = [3]float64{sc * theta[0], sc * theta[1], sc * theta[2]}
		if mask&2 == 0 {
			t.w[mask][2] = 0
		}
	}
	return t
}

// claimBuf is one goroutine's working rows, grown to the widest object it
// has met: a claim's row, the E-step's μ numerators of one object, and the
// relationship and popularity rows of a claim on an object above the
// index's dense-table cap.
type claimBuf struct {
	row, num, p2, p3 []float64
	rel              []uint8
}

// rowFor returns the claim row for an object with n candidates.
//
//tdh:hotpath
func (b *claimBuf) rowFor(n int) []float64 {
	if cap(b.row) < n {
		b.row = make([]float64, n) //tdh:allocok grows to the widest object once, then steady
	}
	return b.row[:n]
}

// numFor returns the zeroed μ-numerator row for an object with n candidates.
//
//tdh:hotpath
func (b *claimBuf) numFor(n int) []float64 {
	if cap(b.num) < n {
		b.num = make([]float64, n) //tdh:allocok grows to the widest object once, then steady
	}
	num := b.num[:n]
	clear(num)
	return num
}

// wideRows materialises into b what the index keeps no table for on an
// object above its dense-table cap: claim value c's relationship row and,
// with pop, its popularity rows Pop2/Pop3, from the per-truth fallbacks.
// Without pop, p2 and p3 pass through.
//
//tdh:hotpath
func (b *claimBuf) wideRows(ov *data.ObjectView, c int, pop bool, p2, p3 []float64) ([]uint8, []float64, []float64) {
	nV := ov.NumValues()
	if cap(b.rel) < nV {
		b.rel = make([]uint8, nV)  //tdh:allocok grows once to the widest object above the table cap
		b.p2 = make([]float64, nV) //tdh:allocok as above
		b.p3 = make([]float64, nV) //tdh:allocok as above
	}
	rel := b.rel[:nV]
	for tr := range rel {
		rel[tr] = ov.Rel(c, tr)
	}
	if pop {
		p2, p3 = b.p2[:nV], b.p3[:nV]
		for tr := range p2 {
			p2[tr], p3[tr] = ov.Pop2(c, tr), ov.Pop3(c, tr)
		}
	}
	return rel, p2, p3
}

// claimList is the claim kernel over one of ov's claim lists under the μ
// row mu, tabs holding the participant tables of the list's kind. It
// dispatches once per object: a flat object with one candidate has the
// truth posterior [1] whatever θ and μ, so its claims only count; every
// other claim takes two passes over the candidates. Pass 1 fills
// row[tr] = P(claim | v* = tr)·μ_tr (Eqs. 1–4, each probability floored at
// eps before the product) and its sum z, the claim's likelihood under μ
// (Eq. 6). Pass 2 normalises the row into the truth posterior f (uniform
// when z underflowed), adds it into acc and sums the class posterior g
// (Figure 4): the f-mass of the truths in each relationship class with the
// claim — on a flat object the exact-match mass split between classes 1 and
// 2 in proportion θ1:θ2, since its likelihood merged the two (Eq. 2). g is
// stored at the claim's position in gs unless gs is nil.
//
// With acc nil the kernel stops after pass 1, writes nothing, and returns
// Σ log z over the list, each z floored at eps: the likelihood term of the
// MAP objective (LogPosterior). Otherwise it returns 0.
//
//tdh:hotpath
func (m *Model) claimList(ov *data.ObjectView, claims []data.Claim, tabs []partTab, worker bool, mu, acc []float64, gs [][3]float64, b *claimBuf) (ll float64) {
	if len(claims) == 0 {
		return 0
	}
	flat := flatObject(m, ov)
	if flat && len(mu) == 1 {
		for k, cl := range claims {
			if acc == nil {
				ll += math.Log(maxf(mu[0], eps))
				continue
			}
			acc[0]++
			if gs != nil {
				gs[k] = tabs[cl.Part].one
			}
		}
		return ll
	}
	// A claim reads its relationship row and the per-truth factors p2, p3 of
	// the generalized and wrong classes: 1/|Go| and 1/|rest| for a source or
	// under UniformWorkerErrors, the popularity rows Pop2/Pop3 for a worker
	// (Eq. 3). On a flat object p3 is the worker's Pop3 or nil, uniform over
	// the other candidates (Eq. 2).
	pop := worker && !m.Opt.UniformWorkerErrors
	invGo, invRest := ov.InvGoSizes(), ov.InvRestSizes()
	if flat {
		invGo, invRest = nil, nil
	}
	row, masks := b.rowFor(len(mu)), ov.CaseMasks()
	for k, cl := range claims {
		c, t := int(cl.Val), &tabs[cl.Part]
		rel, p2, p3 := ov.RelRow(c), invGo, invRest
		if pop {
			p2, p3 = ov.Pop2Row(c), ov.Pop3Row(c)
		}
		if rel == nil {
			rel, p2, p3 = b.wideRows(ov, c, pop, p2, p3)
		}
		z := 0.0
		if flat {
			wrong := 0.0
			if p3 == nil {
				wrong = maxf(t.theta[2]/float64(len(mu)-1), eps)
			}
			for tr, mt := range mu {
				p := wrong
				if tr == c {
					p = t.theta[0] + t.theta[1]
				} else if p3 != nil {
					p = maxf(t.theta[2]*p3[tr], eps)
				}
				p *= mt
				row[tr] = p
				z += p
			}
		} else {
			for tr, mt := range mu {
				// Class r+1's weight times its factor: 1, 1/|Go| or Pop2, 1/|rest| or Pop3.
				r := rel[tr] - 1
				p := t.w[masks[tr]&3][r] * [3]float64{1, p2[tr], p3[tr]}[r]
				if p < eps {
					p = eps
				}
				p *= mt
				row[tr] = p
				z += p
			}
		}
		if acc == nil {
			ll += math.Log(maxf(z, eps))
			continue
		}

		if z <= 0 {
			for tr := range row {
				row[tr] = 1
			}
			z = float64(len(row))
		}
		var g [3]float64
		if flat {
			for tr, p := range row {
				f := p / z
				acc[tr] += f
				if tr != c {
					g[2] += f
				}
			}
			fc := row[c] / z
			g[0] = fc * t.theta[0] / t.split
			g[1] = fc * t.theta[1] / t.split
		} else {
			for tr, p := range row {
				f := p / z
				acc[tr] += f
				g[rel[tr]-1] += f
			}
		}
		if gs != nil {
			gs[k] = g
		}
	}
	return ll
}

// sourceClaimProb implements Eqs. (1) and (2): P(v_o^s = c | v*_o = tr, φs).
//
//tdh:hotpath
func (m *Model) sourceClaimProb(ov *data.ObjectView, c, tr int, phi [3]float64) float64 {
	nV := ov.NumValues()
	if flatObject(m, ov) {
		if nV <= 1 {
			return 1
		}
		if c == tr {
			return phi[0] + phi[1]
		}
		return maxf(phi[2]/float64(nV-1), eps)
	}
	mask := ov.CaseMask(tr)
	scale := caseScale(phi, mask&1 != 0, mask&2 != 0)
	switch ov.Rel(c, tr) {
	case 1:
		return maxf(scale*phi[0], eps)
	case 2:
		return maxf(scale*phi[1]*ov.InvGoSize(tr), eps)
	default:
		if mask&2 == 0 {
			return eps
		}
		return maxf(scale*phi[2]*ov.InvRestSize(tr), eps)
	}
}

// workerClaimProb implements Eqs. (3) and (4): P(v_o^w = c | v*_o = tr, ψw).
//
//tdh:hotpath
func (m *Model) workerClaimProb(ov *data.ObjectView, c, tr int, psi [3]float64) float64 {
	nV := ov.NumValues()
	if flatObject(m, ov) {
		if nV <= 1 {
			return 1
		}
		if c == tr {
			return psi[0] + psi[1]
		}
		p3 := 1.0 / float64(nV-1)
		if !m.Opt.UniformWorkerErrors {
			p3 = ov.Pop3(c, tr)
		}
		return maxf(psi[2]*p3, eps)
	}
	mask := ov.CaseMask(tr)
	scale := caseScale(psi, mask&1 != 0, mask&2 != 0)
	switch ov.Rel(c, tr) {
	case 1:
		return maxf(scale*psi[0], eps)
	case 2:
		p2 := ov.InvGoSize(tr)
		if !m.Opt.UniformWorkerErrors {
			p2 = ov.Pop2(c, tr)
		}
		return maxf(scale*psi[1]*p2, eps)
	default:
		if mask&2 == 0 {
			return eps
		}
		p3 := ov.InvRestSize(tr)
		if !m.Opt.UniformWorkerErrors {
			p3 = ov.Pop3(c, tr)
		}
		return maxf(scale*psi[2]*p3, eps)
	}
}

// WorkerClaimProb exposes the worker answer model P(v_o^w = c | v*_o = tr, ψ)
// for callers outside the package (the QASCA assigner and tests).
func (m *Model) WorkerClaimProb(ov *data.ObjectView, c, tr int, psi [3]float64) float64 {
	return m.workerClaimProb(ov, c, tr, psi)
}

// AnswerLikelihood computes P(v_o^w = c | ψ, μo) = Σ_v P(c|v*, ψ)·μ_{o,v}
// (Eq. 6) for candidate index c of object o — the distribution a worker's
// next answer is expected to follow, used by EAI (Eq. 15) and QASCA.
func (m *Model) AnswerLikelihood(o string, psi [3]float64, c int) float64 {
	oid, ok := m.Idx.ObjectID(o)
	if !ok {
		return 0
	}
	return m.AnswerLikelihoodAt(oid, psi, c)
}

// AnswerLikelihoodAt is AnswerLikelihood by dense object ID.
//
//tdh:hotpath
func (m *Model) AnswerLikelihoodAt(oid int, psi [3]float64, c int) float64 {
	return m.answerLikelihood(m.Idx.ViewAt(oid), m.MuAt(oid), psi, c)
}

//tdh:hotpath
func (m *Model) answerLikelihood(ov *data.ObjectView, mu []float64, psi [3]float64, c int) float64 {
	p := 0.0
	for tr := range mu {
		p += m.workerClaimProb(ov, c, tr, psi) * mu[tr]
	}
	return p
}

//tdh:hotpath
func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
