package core

import "repro/internal/data"

// The claim model (Eqs. 1–4) spelled out one (claim, truth) pair at a time:
// the scalar reference the row passes (claimList, answerRow) are checked
// against. Production code reads the model only through the row passes.

// sourceClaimProb implements Eqs. (1) and (2): P(v_o^s = c | v*_o = tr, φs).
func (m *Model) sourceClaimProb(ov *data.ObjectView, c, tr int, phi [3]float64) float64 {
	nV := ov.NumValues()
	if !ov.Hier() {
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
func (m *Model) workerClaimProb(ov *data.ObjectView, c, tr int, psi [3]float64) float64 {
	nV := ov.NumValues()
	if !ov.Hier() {
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

// answerLikelihood is the scalar AnswerLikelihoodAt: Eq. 6 summed truth by
// truth from workerClaimProb.
func (m *Model) answerLikelihood(ov *data.ObjectView, mu []float64, psi [3]float64, c int) float64 {
	p := 0.0
	for tr := range mu {
		p += m.workerClaimProb(ov, c, tr, psi) * mu[tr]
	}
	return p
}

// refPosterior is the scalar PosteriorGivenAnswerAt: the Eq. 16 posterior
// of object oid given one answer ans, from workerClaimProb, uniform when
// the answer's likelihood underflowed.
func (m *Model) refPosterior(oid int, psi [3]float64, ans int) []float64 {
	ov, mu := m.Idx.ViewAt(oid), m.MuAt(oid)
	f := make([]float64, len(mu))
	z := 0.0
	for tr := range mu {
		f[tr] = m.workerClaimProb(ov, ans, tr, psi) * mu[tr]
		z += f[tr]
	}
	for i := range f {
		if z > 0 {
			f[i] /= z
		} else {
			f[i] = 1.0 / float64(len(f))
		}
	}
	return f
}

// refCondMax is the scalar CondMaxConfidenceAt: max_v (N_{o,v} + f_v)/(D_o+1)
// for refPosterior's f.
func (m *Model) refCondMax(oid int, psi [3]float64, ans int) float64 {
	n, d := m.NAt(oid), m.DAt(oid)+1
	best := 0.0
	for i, fi := range m.refPosterior(oid, psi, ans) {
		if v := (n[i] + fi) / d; v > best {
			best = v
		}
	}
	return best
}
