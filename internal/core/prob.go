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
// and a multiply. A claim's row for every truth at once (pass 1: hierRow,
// flatRow) has two readers. The claim kernel (claimList) turns it into the
// claim's truth and class posteriors — the E-step's inner loop — takes an
// object's tables once and slices each claim's rows out of them inline: a
// call per claim measured a few percent slower on BenchmarkRun. A worker's answer reads the same row through
// answerRow: the one-answer fold (ApplyAnswerAt), the single-answer
// posteriors and EAI's ExpectedCondMaxAt are reductions of it.
// claimref_test.go spells the model out one (claim, truth) pair at a time
// as the tests' reference for both. An object with no ancestor-descendant
// pair among its candidates (o ∉ OH, !ov.Hier()) takes Eq. (2), which merges
// the exact and generalized cases so that φ₂ is not underestimated on it;
// the flat ablation is TDH on an index built without the hierarchy, where
// every object is such an object.

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

// WorkerTab is what the claim model takes from one worker's ψ alone — the
// table the E-step builds per worker per pass. EAI builds one per ψ and
// scores every object against it (ExpectedCondMaxAt). Read-only once built,
// so concurrent scans may share one.
type WorkerTab struct{ t partTab }

// NewWorkerTab builds the table of a worker with trustworthiness psi.
func NewWorkerTab(psi [3]float64) WorkerTab { return WorkerTab{newPartTab(psi)} }

// claimBuf is one goroutine's working rows, grown to the widest object it
// has met (a fit's are sized for the widest object up front, claimBufs): a
// claim's row, the E-step's μ numerators of one object, and the
// relationship and popularity rows of a claim on an object above the
// index's dense-table cap. A one-object answer pass starts its row on a
// stack array (claimBuf{row: buf[:0]}), so it allocates only for an object
// wider than the array.
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
	flat := !ov.Hier()
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
	// the other candidates (Eq. 2). The object's tables are taken once, and
	// a claim slices its rows out of them: p2s and p3s are the per-truth
	// factors, or a worker's popularity tables.
	pop := worker && !m.Opt.UniformWorkerErrors
	nV := len(mu)
	rels := ov.RelTable()
	var p2s, p3s []float64
	switch {
	case pop:
		p2s, p3s = ov.PopTables()
	case !flat:
		p2s, p3s = ov.InvGoSizes(), ov.InvRestSizes()
	}
	row, masks := b.rowFor(nV), ov.CaseMasks()
	for k, cl := range claims {
		c, t := int(cl.Val), &tabs[cl.Part]
		var rel []uint8
		p2, p3 := p2s, p3s
		if rels != nil {
			lo := c * nV
			rel = rels[lo : lo+nV]
			if pop {
				p2, p3 = p2s[lo:lo+nV], p3s[lo:lo+nV]
			}
		} else {
			rel, p2, p3 = b.wideRows(ov, c, pop, p2, p3)
		}
		var z float64
		if flat {
			wrong := 0.0
			if p3 == nil {
				wrong = maxf(t.theta[2]/float64(len(mu)-1), eps)
			}
			z = t.flatRow(row, mu, c, p3, wrong)
		} else {
			z = t.hierRow(row, mu, rel, masks, p2, p3)
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

// answerRow is pass 1 of a worker's answer ans on object ov under table t,
// as claimList runs it for a worker claim: it fills b's row with
// row[tr] = P(ans | v* = tr, ψ)·μ_tr (Eqs. 3–4) and returns its sum z, the
// answer's likelihood under μ (Eq. 6), and the row. It reads the same
// tables: the popularity rows Pop2/Pop3, or 1/|Go| and 1/|rest| under
// UniformWorkerErrors, taken from b's wide rows on an object above the
// index's dense-table cap. On a flat object with one candidate that
// candidate is every answer's truth, so the row is μ itself. Under
// UniformWorkerErrors a flat object's wrong answer costs ψ3·(1/(|V|−1)),
// which can round differently from claimList's θ3/(|V|−1).
//
//tdh:hotpath
func (m *Model) answerRow(ov *data.ObjectView, t *partTab, ans int, mu []float64, b *claimBuf) (z float64, row []float64) {
	flat, pop := !ov.Hier(), !m.Opt.UniformWorkerErrors
	row = b.rowFor(len(mu))
	if flat && len(mu) == 1 {
		row[0] = mu[0]
		return row[0], row
	}
	var p2, p3 []float64
	if !pop {
		p2, p3 = ov.InvGoSizes(), ov.InvRestSizes()
	}
	rel := ov.RelRow(ans)
	switch {
	case rel == nil:
		rel, p2, p3 = b.wideRows(ov, ans, pop, p2, p3)
	case pop:
		p2, p3 = ov.Pop2Row(ans), ov.Pop3Row(ans)
	}
	if !flat {
		return t.hierRow(row, mu, rel, ov.CaseMasks(), p2, p3), row
	}
	wrong := 0.0
	if !pop {
		p3, wrong = nil, maxf(t.theta[2]*(1.0/float64(len(mu)-1)), eps)
	}
	return t.flatRow(row, mu, ans, p3, wrong), row
}

// hierRow is pass 1 of a claim on an object with the hierarchy (Eqs. 1 and
// 3): row[tr] = max(P(c | v* = tr), eps)·μ_tr for the claim's relationship
// row rel, under this participant's table, the object's case masks and the
// per-truth factors p2, p3 of the generalized and wrong classes. Returns
// Σ row in truth order, the claim's likelihood under μ (Eq. 6).
//
//tdh:hotpath
func (t *partTab) hierRow(row, mu []float64, rel, masks []uint8, p2, p3 []float64) (z float64) {
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
	return z
}

// flatRow is hierRow on a flat object (Eqs. 2 and 4) for claim value c: the
// exact claim takes θ1+θ2, any other value max(θ3·p3[tr], eps), or wrong —
// the caller's uniform wrong-claim probability — where p3 is nil.
//
//tdh:hotpath
func (t *partTab) flatRow(row, mu []float64, c int, p3 []float64, wrong float64) (z float64) {
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
	return z
}

// AnswerLikelihoodAt computes P(v_o^w = c | ψ, μo) = Σ_v P(c|v*, ψ)·μ_{o,v}
// (Eq. 6) for candidate index c of object oid — the distribution a worker's
// next answer is expected to follow (Eq. 15), which ExpectedCondMaxAt fuses.
//
//tdh:hotpath
func (m *Model) AnswerLikelihoodAt(oid int, psi [3]float64, c int) float64 {
	var buf [16]float64
	b := claimBuf{row: buf[:0]}
	t := newPartTab(psi)
	z, _ := m.answerRow(m.Idx.ViewAt(oid), &t, c, m.MuAt(oid), &b)
	return z
}

//tdh:hotpath
func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
