package core

import (
	"math"

	"repro/internal/data"
)

// Incremental EM (Section 4.2): instead of re-running the full EM after a
// hypothetical extra answer (o, w, v'), perform a single EM step touching
// only the new answer, using the cached sufficient statistics N_{o,v}, D_o.
// The step reads the answer's likelihood off the claim kernel's row
// (answerRow, pass 1 as the E-step runs it for a worker claim) with ψ held
// fixed, so the served fold, EAI's scores and the fit read one set of
// tables and one row fill. The hot entry points take dense object IDs; thin
// name-keyed wrappers are kept for the server and test layers.

// answerPosterior returns, in b's row, the truth posterior f of object ov
// implied by one answer ans from a worker with trustworthiness psi (Eq. 16):
// answerRow normalised, uniform when its sum underflowed.
//
//tdh:hotpath
func (m *Model) answerPosterior(ov *data.ObjectView, psi [3]float64, ans int, mu []float64, b *claimBuf) []float64 {
	t := newPartTab(psi)
	z, f := m.answerRow(ov, &t, ans, mu, b)
	if z <= 0 {
		u := 1.0 / float64(len(f))
		for i := range f {
			f[i] = u
		}
		return f
	}
	for i := range f {
		f[i] /= z
	}
	return f
}

// PosteriorGivenAnswerAt computes f^v_{o,w|v_o^w=ans} (Eq. 16): the
// posterior over the truth of object oid implied by one hypothetical answer
// at candidate index ans, under worker trustworthiness psi and the current
// confidences.
func (m *Model) PosteriorGivenAnswerAt(oid int, psi [3]float64, ans int) []float64 {
	var b claimBuf
	return m.answerPosterior(m.Idx.ViewAt(oid), psi, ans, m.MuAt(oid), &b)
}

// CondConfidence computes μ_{o,v | v_o^w = ans} for every candidate v
// (Eq. 18): the confidence distribution after folding in one hypothetical
// answer with a single incremental EM step.
func (m *Model) CondConfidence(o string, psi [3]float64, ans int) []float64 {
	oid, ok := m.Idx.ObjectID(o)
	if !ok {
		return nil
	}
	f := m.PosteriorGivenAnswerAt(oid, psi, ans)
	n := m.NAt(oid)
	d := m.DAt(oid) + 1
	out := make([]float64, len(f))
	for i := range f {
		out[i] = (n[i] + f[i]) / d
	}
	return out
}

// CondMaxConfidenceAt returns max_v μ_{o,v | v_o^w = ans} without
// allocating: the max over v of (N_{o,v} + f_v)/(D_o+1) for the answer's
// posterior f.
//
//tdh:hotpath
func (m *Model) CondMaxConfidenceAt(oid int, psi [3]float64, ans int) float64 {
	mu, n, d := m.MuAt(oid), m.NAt(oid), m.DAt(oid)+1
	var buf [16]float64
	b := claimBuf{row: buf[:0]}
	best := 0.0
	for i, fi := range m.answerPosterior(m.Idx.ViewAt(oid), psi, ans, mu, &b) {
		if v := (n[i] + fi) / d; v > best {
			best = v
		}
	}
	return best
}

// ExpectedCondMaxAt is Σ_{v'} P(v_o^w = v') · max_v μ_{o,v | v_o^w = v'}: the
// expected top confidence after one more answer from a worker whose ψ wt was
// built from (Eq. 15 over Eqs. 6 and 18) — what EAI scores an (object,
// worker) pair by. It is AnswerLikelihoodAt × CondMaxConfidenceAt summed
// over the answers with P(v′) > 0, float for float, in one pass: each
// answer's row (answerRow) has as its sum both P(v′) (Eq. 6) and the
// normaliser of Eq. 16 that the conditional max divides by. The division by
// D_o+1 comes once, after the max: correctly rounded division by a positive
// number is monotone, so max(a_i)/d is the bits of max(a_i/d). On an object
// SettledAt certifies, the result is max_v μ_{o,v} up to float residue for
// every worker, so EAI does not call it there (SettledAt).
//
//tdh:hotpath
func (m *Model) ExpectedCondMaxAt(oid int, wt *WorkerTab) float64 {
	ov := m.Idx.ViewAt(oid)
	mu, n, d := m.MuAt(oid), m.NAt(oid), m.DAt(oid)+1
	var buf [16]float64
	b := claimBuf{row: buf[:0]}
	exp := 0.0
	for ans := range mu {
		pAns, row := m.answerRow(ov, &wt.t, ans, mu, &b)
		if pAns <= 0 {
			continue
		}
		best := 0.0
		for i, p := range row {
			if v := n[i] + p/pAns; v > best {
				best = v
			}
		}
		exp += pAns * (best / d)
	}
	return exp
}

// SettledAt is the no-flip certificate of object oid: it reports whether
// the largest entry N_1 of NAt(oid) exceeds every other entry by at least 1,
// so no single further answer, from any worker, moves the object's argmax.
// An object with one candidate is settled. It reads the N row once: O(|V|).
// It certifies no object wider than settledMaxValues.
//
// Proof. One folded answer a adds its truth posterior f(a), entries in
// [0, 1], to N and 1 to D (ApplyAnswerAt, Eq. 17). The test is on N itself,
// the floats the fold adds to, and in the form N_2 + 1 ≤ N_1 (N_2 the
// runner-up), so it carries over to float evaluation: rounding is monotone,
// so N_j + f_j(a) ≤ N_2 + 1 ≤ N_1 ≤ N_1 + f_1(a) for every j ≠ 1, and the
// max in ExpectedCondMaxAt is N_1 + f_1(a) for every answer. Write
// row_v(a) = μ_v·P(a | v, ψ) (answerRow), P(a) = Σ_v row_v(a) and
// s_v = Σ_a P(a | v, ψ) over the candidates. Then f_1(a) = row_1(a)/P(a),
// Σ_a P(a) = Σ_v μ_v·s_v and Σ_a P(a)·f_1(a) = μ_1·s_1, so Eq. 15 is
//
//	E = (N_1·Σ_v μ_v·s_v + μ_1·s_1) / (D + 1).
//
// The claim model puts at most 1 + |V|·eps of a worker's answer mass on the
// candidates for every truth v: the exact, generalized and wrong classes
// take shares ψ1, ψ2, ψ3 renormalised over the possible ones (caseScale),
// split by distributions over their members (1/|Go| or Pop2, 1/|rest| or
// Pop3; on a flat object every other candidate is in the rest), and each
// eps floor adds at most eps (TestAnswerMassAtMostOne). So every
// s_v ≤ 1 + δ with δ = |V|·eps, and μ = N/D is a distribution (γ ≥ 1 keeps
// N ≥ 0), so E ≤ (1 + δ)·(N_1 + μ_1)/(D + 1) = (1 + δ)·μ_1:
// E − max μ ≤ δ ≤ 5e-10. |O|·EAI = E − max μ, the score eaiAt computes,
// therefore lies under its clamp floor 1e-9 and clamps to exactly 0, float
// residue of a few ulps included — the floor is there for such residue.
//
//tdh:hotpath
func (m *Model) SettledAt(oid int) bool {
	n := m.NAt(oid)
	if m.Opt.Gamma < 1 || len(n) > settledMaxValues {
		return false
	}
	first, second := math.Inf(-1), math.Inf(-1)
	for _, v := range n {
		if v > first {
			first, second = v, first
		} else if v > second {
			second = v
		}
	}
	return second+1 <= first
}

// settledMaxValues is the widest object SettledAt certifies: eps·500 = 5e-10
// keeps the answer-mass slack δ = |V|·eps at half EAI's clamp floor.
const settledMaxValues = 500

// ApplyAnswerAt is the fold itself, by dense IDs (wid < 0: a worker the
// index has never seen, who answers at the prior-mean ψ): one incremental
// EM step (Eq. 17) that adds the answer's truth posterior (Eq. 16) to N,
// bumps D and re-derives μ = N/D.
//
// Ownership is part of the write: the fold first makes the object's page of
// μ, N and D this model's own (cow Own — on a clone the first fold into a
// page copies it, the one allocation a fold can make; on a page already
// owned, and on a fitted model, which owns all of its pages, it is three
// flag reads), so no call sequence on any model can write a page a
// published snapshot still shares.
//
// The update is OBJECT-LOCAL: it writes only this object's N, D and μ
// elements, reads otherwise immutable shared state (Psi, the index tables)
// and keeps its posterior scratch on the stack. Calls on one model must be
// serialized: the server folds each cycle's answers from its one
// coordinator goroutine (engine.Epoch).
//
//tdh:hotpath
func (m *Model) ApplyAnswerAt(oid, wid, ans int) {
	psi := priorMean(m.Opt.Beta)
	if wid >= 0 {
		psi = m.Psi[wid]
	}
	m.mu.Own(oid)
	m.n.Own(oid)
	m.d.Own(oid)
	mu, n := m.MuAt(oid), m.NAt(oid)
	var buf [16]float64
	b := claimBuf{row: buf[:0]}
	f := m.answerPosterior(m.Idx.ViewAt(oid), psi, ans, mu, &b)
	for i := range n {
		n[i] += f[i]
	}
	d := m.DAt(oid) + 1
	m.d.Set(oid, d)
	for i := range mu {
		mu[i] = n[i] / d
	}
}
