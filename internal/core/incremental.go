package core

import "repro/internal/data"

// Incremental EM (Section 4.2): instead of re-running the full EM after a
// hypothetical extra answer (o, w, v'), perform a single EM step touching
// only the new answer, using the cached sufficient statistics N_{o,v}, D_o.
// The hot entry points take dense object IDs; thin name-keyed wrappers are
// kept for the server and test layers.

// PosteriorGivenAnswerAt computes f^v_{o,w|v_o^w=ans} (Eq. 16): the
// posterior over the truth of object oid implied by one hypothetical answer
// at candidate index ans, under worker trustworthiness psi and the current
// confidences.
func (m *Model) PosteriorGivenAnswerAt(oid int, psi [3]float64, ans int) []float64 {
	ov := m.Idx.ViewAt(oid)
	mu := m.MuAt(oid)
	f := make([]float64, len(mu))
	z := 0.0
	for tr := range mu {
		p := m.workerClaimProb(ov, ans, tr, psi) * mu[tr]
		f[tr] = p
		z += p
	}
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

// CondMaxConfidence returns max_v μ_{o,v | v_o^w = ans} without allocating.
func (m *Model) CondMaxConfidence(o string, psi [3]float64, ans int) float64 {
	oid, ok := m.Idx.ObjectID(o)
	if !ok {
		return 0
	}
	return m.CondMaxConfidenceAt(oid, psi, ans)
}

// CondMaxConfidenceAt is CondMaxConfidence by dense object ID.
//
//tdh:hotpath
func (m *Model) CondMaxConfidenceAt(oid int, psi [3]float64, ans int) float64 {
	return m.condMax(m.Idx.ViewAt(oid), m.MuAt(oid), m.NAt(oid), m.DAt(oid), psi, ans)
}

// condMax is max_v μ_{o,v | v_o^w = ans} over the object's rows — the inner
// loop of the EAI assigner.
//
//tdh:hotpath
func (m *Model) condMax(ov *data.ObjectView, mu, n []float64, d float64, psi [3]float64, ans int) float64 {
	// Inline PosteriorGivenAnswerAt to avoid the slice allocation: compute
	// unnormalized posteriors and track the max of (N + f)/(D+1).
	z := 0.0
	nVals := len(mu)
	var raw [16]float64
	var rawS []float64
	if nVals <= len(raw) {
		rawS = raw[:nVals]
	} else {
		rawS = make([]float64, nVals) //tdh:allocok spill for >16-candidate objects; absent in steady state
	}
	for tr := 0; tr < nVals; tr++ {
		p := m.workerClaimProb(ov, ans, tr, psi) * mu[tr]
		rawS[tr] = p
		z += p
	}
	d++
	best := 0.0
	for i := 0; i < nVals; i++ {
		fi := 0.0
		if z > 0 {
			fi = rawS[i] / z
		} else {
			fi = 1.0 / float64(nVals)
		}
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
// over the answers, float for float, in one pass: each answer's row of
// products P(v′|tr, ψ)·μ_tr is the claim kernel's pass 1 for a hypothetical
// claim v′ (hierRow, flatRow over the object's tables and wt), and its sum is
// both P(v′) (Eq. 6) and the normaliser of Eq. 16 that the conditional max
// divides by. The division by D_o+1 comes once, after the max: correctly
// rounded division by a positive number is monotone, so max(a_i)/d is the
// bits of max(a_i/d).
//
//tdh:hotpath
func (m *Model) ExpectedCondMaxAt(oid int, wt *WorkerTab) float64 {
	ov := m.Idx.ViewAt(oid)
	mu, n, d := m.MuAt(oid), m.NAt(oid), m.DAt(oid)+1
	var buf [16]float64
	raw := buf[:]
	if len(mu) > len(buf) {
		raw = make([]float64, len(mu)) //tdh:allocok spill for >16-candidate objects; absent in steady state
	}
	raw = raw[:len(mu)]
	// An answer reads the factors of Eq. 3 as the kernel does for a worker
	// claim: the popularity rows Pop2/Pop3, or 1/|Go| and 1/|rest| under
	// UniformWorkerErrors. On a flat object under UniformWorkerErrors the
	// wrong-answer probability is workerClaimProb's ψ3·(1/(|V|−1)), which
	// can round differently from the kernel's θ3/(|V|−1).
	t, pop, flat := &wt.t, !m.Opt.UniformWorkerErrors, flatObject(m, ov)
	invGo, invRest, masks := ov.InvGoSizes(), ov.InvRestSizes(), ov.CaseMasks()
	wrong := 0.0
	if flat && !pop && len(mu) > 1 {
		wrong = maxf(t.theta[2]*(1.0/float64(len(mu)-1)), eps)
	}
	var wide claimBuf
	exp := 0.0
	for ans := range mu {
		var pAns float64
		switch {
		case flat && len(mu) == 1:
			// A single candidate is every answer's truth: P(v′|v*) = 1.
			raw[0] = mu[0]
			pAns = raw[0]
		case flat:
			var p3 []float64
			if pop {
				if p3 = ov.Pop3Row(ans); p3 == nil {
					_, _, p3 = wide.wideRows(ov, ans, true, nil, nil)
				}
			}
			pAns = t.flatRow(raw, mu, ans, p3, wrong)
		default:
			rel, p2, p3 := ov.RelRow(ans), invGo, invRest
			if pop {
				p2, p3 = ov.Pop2Row(ans), ov.Pop3Row(ans)
			}
			if rel == nil {
				rel, p2, p3 = wide.wideRows(ov, ans, pop, p2, p3)
			}
			pAns = t.hierRow(raw, mu, rel, masks, p2, p3)
		}
		if pAns <= 0 {
			continue
		}
		best := 0.0
		for i, p := range raw {
			if v := n[i] + p/pAns; v > best {
				best = v
			}
		}
		exp += pAns * (best / d)
	}
	return exp
}

// ApplyAnswer permanently folds a real answer into the sufficient
// statistics and confidences with one incremental step, by name: the
// spelling for tests and one-off callers. Unknown objects are ignored;
// unknown workers answer at the prior-mean ψ.
func (m *Model) ApplyAnswer(o, w string, ans int) {
	oid, ok := m.Idx.ObjectID(o)
	if !ok {
		return
	}
	wid, ok := m.Idx.WorkerID(w)
	if !ok {
		wid = -1
	}
	m.ApplyAnswerAt(oid, wid, ans)
}

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
	ov := m.Idx.ViewAt(oid)
	m.mu.Own(oid)
	m.n.Own(oid)
	m.d.Own(oid)
	mu, n := m.MuAt(oid), m.NAt(oid)
	var buf [16]float64
	f := buf[:]
	if len(mu) > len(buf) {
		f = make([]float64, len(mu)) //tdh:allocok spill for >16-candidate objects; absent in steady state
	}
	f = f[:len(mu)]
	z := 0.0
	for tr := range mu {
		f[tr] = m.workerClaimProb(ov, ans, tr, psi) * mu[tr]
		z += f[tr]
	}
	uniform := 1.0 / float64(len(f))
	for i := range n {
		if z > 0 {
			n[i] += f[i] / z
		} else {
			n[i] += uniform
		}
	}
	d := m.DAt(oid) + 1
	m.d.Set(oid, d)
	for i := range mu {
		mu[i] = n[i] / d
	}
}
