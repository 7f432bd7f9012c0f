package core

import "repro/internal/data"

// The claim model (Eqs. 1–4) evaluated over the precomputed tables of
// data.ObjectView: relationship classes, case-possibility masks, 1/|Go|,
// 1/|rest| and the popularity distributions are all index-time constants,
// so the per-(claim, truth) probability is a handful of lookups and
// multiplies. Row variants fill P(claim | truth=·) for every truth at once
// — the E-step inner loop — and scalar variants serve the incremental EM
// and external callers.

// flatObject reports whether the whole object is handled by Eq. (2): no
// ancestor-descendant pair among its candidates (o ∉ OH), or the flat-model
// ablation. Eq. (2) merges the exact and generalized cases so that φ₂ is
// not underestimated on such objects.
//
//tdh:hotpath
func flatObject(m *Model, ov *data.ObjectView) bool {
	return m.Opt.FlatModel || !ov.CI.Hier
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

// caseScaleTab precomputes caseScale for the four possibility masks, so the
// per-truth scale inside a row fill is a table lookup.
//
//tdh:hotpath
func caseScaleTab(theta [3]float64) [4]float64 {
	return [4]float64{
		caseScale(theta, false, false),
		caseScale(theta, true, false),
		caseScale(theta, false, true),
		caseScale(theta, true, true),
	}
}

// sourceClaimRow fills dst[tr] = P(v_o^s = c | v*_o = tr, φs) for every
// truth tr (Eqs. 1 and 2).
//
//tdh:hotpath
func (m *Model) sourceClaimRow(ov *data.ObjectView, c int, phi [3]float64, flat bool, dst []float64) {
	nV := len(dst)
	if flat {
		if nV <= 1 {
			dst[0] = 1
			return
		}
		wrong := maxf(phi[2]/float64(nV-1), eps)
		for tr := range dst {
			dst[tr] = wrong
		}
		dst[c] = phi[0] + phi[1]
		return
	}
	scaleTab := caseScaleTab(phi)
	masks := ov.CaseMasks()
	invGo := ov.InvGoSizes()
	invRest := ov.InvRestSizes()
	if rel := ov.RelRow(c); rel != nil {
		for tr := range dst {
			sc := scaleTab[masks[tr]]
			var p float64
			switch rel[tr] {
			case 1:
				p = sc * phi[0]
			case 2:
				p = sc * phi[1] * invGo[tr]
			default:
				p = sc * phi[2] * invRest[tr]
			}
			if p < eps {
				p = eps
			}
			dst[tr] = p
		}
		return
	}
	for tr := range dst {
		sc := scaleTab[masks[tr]]
		var p float64
		switch ov.Rel(c, tr) {
		case 1:
			p = sc * phi[0]
		case 2:
			p = sc * phi[1] * invGo[tr]
		default:
			p = sc * phi[2] * invRest[tr]
		}
		if p < eps {
			p = eps
		}
		dst[tr] = p
	}
}

// workerClaimRow fills dst[tr] = P(v_o^w = c | v*_o = tr, ψw) for every
// truth tr (Eqs. 3 and 4), mixing the popularity distributions Pop2/Pop3
// computed from the source records unless the ablation flag disables them.
//
//tdh:hotpath
func (m *Model) workerClaimRow(ov *data.ObjectView, c int, psi [3]float64, flat bool, dst []float64) {
	nV := len(dst)
	uniform := m.Opt.UniformWorkerErrors
	pop2 := ov.Pop2Row(c)
	pop3 := ov.Pop3Row(c)
	if flat {
		if nV <= 1 {
			dst[0] = 1
			return
		}
		switch {
		case uniform:
			wrong := maxf(psi[2]/float64(nV-1), eps)
			for tr := range dst {
				dst[tr] = wrong
			}
		case pop3 != nil:
			for tr := range dst {
				dst[tr] = maxf(psi[2]*pop3[tr], eps)
			}
		default: // above the table cap: per-truth Pop3 fallback
			for tr := range dst {
				dst[tr] = maxf(psi[2]*ov.Pop3(c, tr), eps)
			}
		}
		dst[c] = psi[0] + psi[1]
		return
	}
	scaleTab := caseScaleTab(psi)
	masks := ov.CaseMasks()
	invGo := ov.InvGoSizes()
	invRest := ov.InvRestSizes()
	rel := ov.RelRow(c)
	for tr := range dst {
		sc := scaleTab[masks[tr]]
		var r uint8
		if rel != nil {
			r = rel[tr]
		} else {
			r = ov.Rel(c, tr)
		}
		var p float64
		switch r {
		case 1:
			p = sc * psi[0]
		case 2:
			p2 := invGo[tr]
			if !uniform {
				if pop2 != nil {
					p2 = pop2[tr]
				} else {
					p2 = ov.Pop2(c, tr)
				}
			}
			p = sc * psi[1] * p2
		default:
			if masks[tr]&2 == 0 {
				p = 0 // no wrong value possible; floored to eps below
			} else {
				p3 := invRest[tr]
				if !uniform {
					if pop3 != nil {
						p3 = pop3[tr]
					} else {
						p3 = ov.Pop3(c, tr)
					}
				}
				p = sc * psi[2] * p3
			}
		}
		if p < eps {
			p = eps
		}
		dst[tr] = p
	}
}

// sourceClaimProb implements Eqs. (1) and (2): P(v_o^s = c | v*_o = tr, φs).
//
//tdh:hotpath
func (m *Model) sourceClaimProb(ov *data.ObjectView, c, tr int, phi [3]float64) float64 {
	nV := ov.CI.NumValues()
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
	nV := ov.CI.NumValues()
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
