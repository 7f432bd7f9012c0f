package core

import (
	"math"
	"sync"

	"repro/internal/cow"
	"repro/internal/data"
)

// Run fits the TDH model on the indexed dataset with MAP-EM (Section 3.2).
//
// E-step (Figure 4): for every record and answer, the posterior over the
// hidden truth f^v and the relationship class posteriors g^t are computed
// under the current parameters. M-step (Eqs. 9–11): μ, φ and ψ are updated
// from the aggregated posteriors plus their Dirichlet priors. The loop
// stops at the first E/M evaluation whose largest confidence change falls
// below Options.Tol, or after Options.MaxIter evaluations.
//
// Plain EM contracts by only ≈ 0.93–0.95 per iteration on the paper's
// workloads, so the loop runs it in SQUAREM cycles (Varadhan & Roland 2008)
// of three evaluations: two plain steps θ0→θ1→θ2, an extrapolation of the
// whole parameter vector θ = (μ, φ, ψ) along them (Model.extrapolate), and
// one plain step from the extrapolated point, which both stabilises it and
// measures its fixed-point residual. Every evaluation is therefore a plain
// E/M step, so the stop rule means what it always did, and the result is
// still a deterministic from-scratch function of the index: there is no
// warm start and no state carried between calls.
//
// The E-step runs in two allocation-free passes over reusable scratch
// buffers: pass A walks objects (range-partitioned across workers),
// computing each claim's truth posterior — pure table lookups thanks to the
// precomputed relationship/popularity tables in data.ObjectView — and
// storing the per-claim class posterior; pass B reduces those per-claim
// posteriors participant-major through the index's CSR transpose. Because
// every float is accumulated in an order fixed by the index (never by the
// goroutine schedule) and the extrapolation is sequential, results are
// bit-for-bit identical for any worker count.
func Run(idx *data.Index, opt Options) *Model {
	m := NewModel(idx, opt)
	opt = m.Opt
	workers := opt.effectiveWorkers()
	for m.Iterations < opt.MaxIter {
		if m.evaluate(workers) < opt.Tol {
			break
		}
	}
	m.finish()
	return m
}

// finish ends a fit: one final E-step refresh of N and D so the incremental
// EM of the task-assignment stage sees sufficient statistics consistent
// with the final parameters, then μ = N/D re-derived so the exported
// confidences and the sufficient statistics agree exactly.
func (m *Model) finish() {
	m.refreshSufficientStats()
	for oid, d := range m.dFlat {
		mu, n := m.muRow(oid), m.nRow(oid)
		if d <= 0 {
			continue
		}
		for i := range mu {
			mu[i] = n[i] / d
		}
	}
}

// NewModel builds a Model with initialized (but not yet fitted) parameters.
// Most callers want Run; NewModel + StepOnce let streaming applications and
// convergence tests drive plain, unaccelerated EM themselves.
func NewModel(idx *data.Index, opt Options) *Model {
	m := newModelShell(idx, opt)
	m.initialize()
	return m
}

// newModelShell allocates the dense parameter arrays with φ/ψ at their
// prior means and μ zeroed — the shared skeleton of NewModel (which adds
// the vote initialization), Grow and Load (which overwrite everything from a
// previous model or a snapshot). μ, N and D are one flat array each, and the
// model's pages are cut from them without copying.
func newModelShell(idx *data.Index, opt Options) *Model {
	opt = opt.WithDefaults()
	m := &Model{
		Idx: idx,
		Opt: opt,
		Phi: make([][3]float64, len(idx.SourceNames)),
		Psi: make([][3]float64, len(idx.WorkerNames)),
	}
	n := len(idx.Objects)
	m.off = make([]int, n+1)
	for i := range idx.Views {
		m.off[i+1] = m.off[i] + idx.Views[i].CI.NumValues()
	}
	m.muFlat, m.nFlat, m.dFlat = make([]float64, m.off[n]), make([]float64, m.off[n]), make([]float64, n)
	m.mu, m.n, m.d = cow.PagedRows(m.muFlat, m.off), cow.PagedRows(m.nFlat, m.off), cow.Paged(m.dFlat)
	phi0 := priorMean(opt.Alpha)
	for s := range m.Phi {
		m.Phi[s] = phi0
	}
	psi0 := priorMean(opt.Beta)
	for w := range m.Psi {
		m.Psi[w] = psi0
	}
	return m
}

// muRow and nRow are object oid's μ and N rows in the fit's own flat arrays:
// how the EM kernel and the other builders of a model address them. A clone
// has no flat arrays; everything that reads an arbitrary model goes through
// MuAt / NAt / DAt instead.
//
//tdh:hotpath
func (m *Model) muRow(oid int) []float64 { return m.muFlat[m.off[oid]:m.off[oid+1]] }

//tdh:hotpath
func (m *Model) nRow(oid int) []float64 { return m.nFlat[m.off[oid]:m.off[oid+1]] }

// initialize sets μ to a smoothed, hierarchy-aware vote distribution
// (φ and ψ start at their prior means, set by newModelShell). A candidate
// earns full credit for its own
// claims and half credit for claims on hierarchically related candidates
// (ancestors or descendants), so a specific value whose support is spread
// across generalization levels starts ahead of an unrelated value with a
// couple of exact repeats — steering the EM toward the hierarchical mode
// of the posterior instead of a flat-vote local optimum.
func (m *Model) initialize() {
	counts := []float64(nil)
	for oid := range m.Idx.Views {
		counts = m.initObjectMu(oid, counts)
	}
}

// initObjectMu applies the vote initialization to one object's μ row. The
// counts buffer is reused across calls (returned so the caller can keep the
// grown backing array); Model.Grow uses it to seed objects that enter a
// fitted model through Index.Extend.
func (m *Model) initObjectMu(oid int, counts []float64) []float64 {
	ov := m.Idx.ViewAt(oid)
	n := ov.CI.NumValues()
	if cap(counts) < n {
		counts = make([]float64, n)
	}
	counts = counts[:n]
	for i := range counts {
		counts[i] = float64(ov.ValueCount[i])
	}
	// Worker answers count too so crowdsourced values are not ignored
	// at initialization.
	for _, cl := range ov.WorkerClaims {
		counts[cl.Val]++
	}
	mu := m.muRow(oid)
	total := 0.0
	for i := range mu {
		mu[i] = counts[i] + 1
		if !m.Opt.FlatModel {
			for _, j := range ov.CI.Anc[i] {
				mu[i] += 0.5 * counts[j]
			}
			for _, j := range ov.CI.Desc[i] {
				mu[i] += 0.5 * counts[j]
			}
		}
		total += mu[i]
	}
	for i := range mu {
		mu[i] /= total
	}
	return counts
}

// emScratch holds the E-step working set, allocated once per Model and
// reused every iteration so the steady state allocates nothing.
type emScratch struct {
	muNum []float64    // flat μ numerators, same layout as Model.muFlat
	srcG  [][3]float64 // class posterior of every source claim (global ID)
	wkrG  [][3]float64 // class posterior of every worker answer (global ID)
	fBufs [][]float64  // per-goroutine truth-posterior buffers
	// The SQUAREM cycle's three iterates θ0, θ1, θ2, each the flattened
	// parameter vector (μ, φ, ψ) in saveParams layout.
	th0, th1, th2 []float64
}

// scratch returns the reusable E-step buffers, growing fBufs to nWorkers.
func (m *Model) scratch(nWorkers int) *emScratch {
	if m.muFlat == nil {
		panic("core: EM step on a cloned model; a clone is fold-only")
	}
	if m.scr == nil {
		maxNV := 0
		for i := range m.Idx.Views {
			if n := m.Idx.Views[i].CI.NumValues(); n > maxNV {
				maxNV = n
			}
		}
		nParams := len(m.muFlat) + 3*len(m.Phi) + 3*len(m.Psi)
		m.scr = &emScratch{
			muNum: make([]float64, len(m.muFlat)),
			srcG:  make([][3]float64, m.Idx.NumSourceClaims()),
			wkrG:  make([][3]float64, m.Idx.NumWorkerClaims()),
			th0:   make([]float64, nParams),
			th1:   make([]float64, nParams),
			th2:   make([]float64, nParams),
		}
		m.scrMaxNV = maxNV
	}
	for len(m.scr.fBufs) < nWorkers {
		m.scr.fBufs = append(m.scr.fBufs, make([]float64, m.scrMaxNV))
	}
	return m.scr
}

// evaluate performs Run's next E/M evaluation and returns its max confidence
// delta. The position in the three-evaluation SQUAREM cycle is the
// evaluation count itself, so a capped run simply ends mid-cycle.
func (m *Model) evaluate(workers int) float64 {
	switch scr := m.scratch(1); m.Iterations % 3 {
	case 0:
		m.saveParams(scr.th0)
	case 1:
		m.saveParams(scr.th1)
	case 2:
		m.extrapolate(scr)
	}
	m.Iterations++
	return m.step(workers)
}

// saveParams flattens θ = (μ, φ, ψ) into dst.
//
//tdh:hotpath
func (m *Model) saveParams(dst []float64) {
	n := copy(dst, m.muFlat)
	for i := range m.Phi {
		n += copy(dst[n:], m.Phi[i][:])
	}
	for i := range m.Psi {
		n += copy(dst[n:], m.Psi[i][:])
	}
}

// extrapolate ends the two plain steps θ0→θ1→θ2 of a SQUAREM cycle (θ0 and
// θ1 saved in scr, θ2 in the model) by replacing the model's parameters
// with θ' = θ0 − 2αr + α²v, where r = θ1−θ0, v = (θ2−θ1)−r and the step
// length α = −‖r‖/‖v‖ (scheme S3 of Varadhan & Roland) is clamped to ≤ −1.
// At α = −1 the formula is θ2 itself, so a clamped cycle is three plain
// steps and the model is left untouched. θ' is an affine combination of
// three points of the simplices, so its rows still sum to one but may leave
// the positive orthant; each μ row, φ and ψ is floored at eps and
// renormalised. Both norms are summed sequentially in index order: α never
// depends on the worker count or the goroutine schedule.
//
//tdh:hotpath
func (m *Model) extrapolate(scr *emScratch) {
	t0, t1, t2 := scr.th0, scr.th1, scr.th2
	m.saveParams(t2)
	var rr, vv float64
	for i, x2 := range t2 {
		r := t1[i] - t0[i]
		v := (x2 - t1[i]) - r
		rr += r * r
		vv += v * v
	}
	if vv == 0 || rr <= vv {
		return // clamped to α = −1: the plain step θ2 the model already holds
	}
	alpha := -math.Sqrt(rr / vv)
	for i, x2 := range t2 {
		r := t1[i] - t0[i]
		v := (x2 - t1[i]) - r
		t2[i] = t0[i] - 2*alpha*r + alpha*alpha*v
	}
	for oid := range m.dFlat {
		projectSimplex(m.muRow(oid), t2[m.off[oid]:m.off[oid+1]])
	}
	n := len(m.muFlat)
	for i := range m.Phi {
		projectSimplex(m.Phi[i][:], t2[n:n+3])
		n += 3
	}
	for i := range m.Psi {
		projectSimplex(m.Psi[i][:], t2[n:n+3])
		n += 3
	}
}

// projectSimplex writes src into dst floored at eps and renormalised.
//
//tdh:hotpath
func projectSimplex(dst, src []float64) {
	sum := 0.0
	for i, x := range src {
		if x < eps {
			x = eps
		}
		dst[i] = x
		sum += x
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// step runs one full E+M iteration and returns the max confidence delta,
// which it also records as FinalDelta. workers > 1 parallelizes both E-step
// passes; results are independent of the worker count.
func (m *Model) step(workers int) float64 {
	nObj := len(m.Idx.Views)
	if workers > nObj {
		workers = nObj
	}
	if workers < 1 {
		workers = 1
	}
	scr := m.scratch(workers)
	clear(scr.muNum)

	// Pass A: per-object truth posteriors. Objects are range-partitioned;
	// each goroutine owns a contiguous ID range, so every muNum segment and
	// every per-claim slot is written by exactly one goroutine.
	if workers == 1 {
		m.eStepObjects(0, nObj, scr.muNum, scr, scr.fBufs[0])
	} else {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			lo, hi := g*nObj/workers, (g+1)*nObj/workers
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int, f []float64) {
				defer wg.Done()
				m.eStepObjects(lo, hi, scr.muNum, scr, f)
			}(lo, hi, scr.fBufs[g])
		}
		wg.Wait()
	}

	// Pass B folded into the M-step: per-participant reductions over the
	// CSR transpose (order fixed by the index, not the schedule).
	m.FinalDelta = m.mStep(scr, workers)
	return m.FinalDelta
}

// eStepObjects computes, for every claim of objects [lo, hi): the truth
// posterior f (accumulated into the object's μ numerator) and the
// relationship-class posterior g (stored per claim for pass B).
//
//tdh:hotpath
func (m *Model) eStepObjects(lo, hi int, muNum []float64, scr *emScratch, f []float64) {
	for oid := lo; oid < hi; oid++ {
		ov := m.Idx.ViewAt(oid)
		mu := m.muRow(oid)
		acc := muNum[m.off[oid]:m.off[oid+1]]
		flat := flatObject(m, ov)
		sBase := int(m.Idx.SrcClaimStart[oid])
		for k, cl := range ov.SourceClaims {
			phi := m.Phi[cl.Part]
			fr := f[:len(mu)]
			m.sourceClaimRow(ov, int(cl.Val), phi, flat, fr)
			posteriorFromRow(fr, mu)
			for i, fi := range fr {
				acc[i] += fi
			}
			scr.srcG[sBase+k] = classPosterior(ov, int(cl.Val), phi, flat, fr)
		}
		wBase := int(m.Idx.WkrClaimStart[oid])
		for k, cl := range ov.WorkerClaims {
			psi := m.Psi[cl.Part]
			fr := f[:len(mu)]
			m.workerClaimRow(ov, int(cl.Val), psi, flat, fr)
			posteriorFromRow(fr, mu)
			for i, fi := range fr {
				acc[i] += fi
			}
			scr.wkrG[wBase+k] = classPosterior(ov, int(cl.Val), psi, flat, fr)
		}
	}
}

// posteriorFromRow turns a claim-probability row into the truth posterior
// f^v in place: f[tr] = P(claim | tr)·μ_tr, normalized (uniform when the
// total mass underflows to zero).
//
//tdh:hotpath
func posteriorFromRow(f, mu []float64) {
	z := 0.0
	for tr, p := range f {
		p *= mu[tr]
		f[tr] = p
		z += p
	}
	if z <= 0 {
		u := 1.0 / float64(len(f))
		for i := range f {
			f[i] = u
		}
		return
	}
	for i := range f {
		f[i] /= z
	}
}

// classPosterior computes (g¹,g²,g³) from the truth posterior f: the
// relationship classes partition the candidate space, so g^t is the f-mass
// of candidates in relationship t with the claim (Figure 4). For truths
// whose likelihood merged the exact and generalized cases (Eq. 2 — whole
// objects outside OH, and candidate truths without candidate ancestors),
// the exact-match mass splits between classes 1 and 2 in proportion θ₁:θ₂.
//
//tdh:hotpath
func classPosterior(ov *data.ObjectView, c int, theta [3]float64, flat bool, f []float64) [3]float64 {
	var g [3]float64
	if flat {
		// Eq. (2): the exact-match likelihood carried θ₁+θ₂, so its mass
		// splits between classes 1 and 2 in that proportion.
		split := theta[0] + theta[1]
		if split <= 0 {
			split = 1
		}
		g[0] = f[c] * theta[0] / split
		g[1] = f[c] * theta[1] / split
		for i, fi := range f {
			if i != c {
				g[2] += fi
			}
		}
		return g
	}
	if rel := ov.RelRow(c); rel != nil {
		for tr, fi := range f {
			switch rel[tr] {
			case 1:
				g[0] += fi
			case 2:
				g[1] += fi
			default:
				g[2] += fi
			}
		}
		return g
	}
	for tr, fi := range f {
		switch ov.Rel(c, tr) {
		case 1:
			g[0] += fi
		case 2:
			g[1] += fi
		default:
			g[2] += fi
		}
	}
	return g
}

// mStep applies the M-step updates (Eqs. 9–11) from the aggregated E-step
// posteriors and returns the max confidence delta. The φ/ψ numerators are
// reduced here from the per-claim class posteriors, participant-major, in
// index order.
func (m *Model) mStep(scr *emScratch, workers int) float64 {
	nObj := len(m.Idx.Views)
	if workers <= 1 {
		maxDelta := m.updateMu(scr, 0, nObj)
		m.updatePhi(scr, 0, len(m.Phi))
		m.updatePsi(scr, 0, len(m.Psi))
		return maxDelta
	}
	var wg sync.WaitGroup
	deltas := make([]float64, workers)
	for g := 0; g < workers; g++ {
		lo, hi := g*nObj/workers, (g+1)*nObj/workers
		pLo, pHi := g*len(m.Phi)/workers, (g+1)*len(m.Phi)/workers
		qLo, qHi := g*len(m.Psi)/workers, (g+1)*len(m.Psi)/workers
		wg.Add(1)
		go func(g, lo, hi, pLo, pHi, qLo, qHi int) {
			defer wg.Done()
			deltas[g] = m.updateMu(scr, lo, hi)
			m.updatePhi(scr, pLo, pHi)
			m.updatePsi(scr, qLo, qHi)
		}(g, lo, hi, pLo, pHi, qLo, qHi)
	}
	wg.Wait()
	maxDelta := 0.0
	for _, d := range deltas {
		if d > maxDelta {
			maxDelta = d
		}
	}
	return maxDelta
}

// updateMu applies Eq. (9) to objects [lo, hi) and returns the local max
// confidence delta.
//
//tdh:hotpath
func (m *Model) updateMu(scr *emScratch, lo, hi int) float64 {
	gamma := m.Opt.Gamma
	localMax := 0.0
	for oid := lo; oid < hi; oid++ {
		ov := m.Idx.ViewAt(oid)
		mu := m.muRow(oid)
		nClaims := len(ov.SourceClaims) + len(ov.WorkerClaims)
		den := float64(nClaims) + float64(len(mu))*(gamma-1)
		if den <= 0 {
			continue
		}
		num := scr.muNum[m.off[oid]:m.off[oid+1]]
		for i := range mu {
			nv := num[i] + gamma - 1
			v := nv / den
			if d := math.Abs(v - mu[i]); d > localMax {
				localMax = d
			}
			mu[i] = v
		}
	}
	return localMax
}

// updatePhi applies Eq. (10) to sources [lo, hi), reducing the per-claim
// class posteriors through the CSR transpose in index order.
//
//tdh:hotpath
func (m *Model) updatePhi(scr *emScratch, lo, hi int) {
	alphaSum := m.Opt.Alpha[0] + m.Opt.Alpha[1] + m.Opt.Alpha[2] - 3
	for sid := lo; sid < hi; sid++ {
		refs := m.Idx.SourceClaimRefs[sid]
		var num [3]float64
		for _, gi := range refs {
			g := &scr.srcG[gi]
			num[0] += g[0]
			num[1] += g[1]
			num[2] += g[2]
		}
		den := float64(len(refs)) + alphaSum
		if den <= 0 {
			continue
		}
		m.Phi[sid] = normalize3([3]float64{
			(num[0] + m.Opt.Alpha[0] - 1) / den,
			(num[1] + m.Opt.Alpha[1] - 1) / den,
			(num[2] + m.Opt.Alpha[2] - 1) / den,
		})
	}
}

// updatePsi applies Eq. (11) to workers [lo, hi).
//
//tdh:hotpath
func (m *Model) updatePsi(scr *emScratch, lo, hi int) {
	betaSum := m.Opt.Beta[0] + m.Opt.Beta[1] + m.Opt.Beta[2] - 3
	for wid := lo; wid < hi; wid++ {
		refs := m.Idx.WorkerClaimRefs[wid]
		var num [3]float64
		for _, gi := range refs {
			g := &scr.wkrG[gi]
			num[0] += g[0]
			num[1] += g[1]
			num[2] += g[2]
		}
		den := float64(len(refs)) + betaSum
		if den <= 0 {
			continue
		}
		m.Psi[wid] = normalize3([3]float64{
			(num[0] + m.Opt.Beta[0] - 1) / den,
			(num[1] + m.Opt.Beta[1] - 1) / den,
			(num[2] + m.Opt.Beta[2] - 1) / den,
		})
	}
}

// refreshSufficientStats recomputes N_{o,v} and D_o (the numerator and
// denominator of Eq. 9) under the final parameters, in parallel over
// object ranges.
func (m *Model) refreshSufficientStats() {
	workers := m.Opt.effectiveWorkers()
	nObj := len(m.Idx.Views)
	if workers > nObj {
		workers = nObj
	}
	if workers < 1 {
		workers = 1
	}
	scr := m.scratch(workers)
	gamma := m.Opt.Gamma
	refresh := func(lo, hi int, f []float64) {
		for oid := lo; oid < hi; oid++ {
			ov := m.Idx.ViewAt(oid)
			mu := m.muRow(oid)
			flat := flatObject(m, ov)
			num := m.nRow(oid)
			clear(num)
			for _, cl := range ov.SourceClaims {
				fr := f[:len(mu)]
				m.sourceClaimRow(ov, int(cl.Val), m.Phi[cl.Part], flat, fr)
				posteriorFromRow(fr, mu)
				for i, fi := range fr {
					num[i] += fi
				}
			}
			for _, cl := range ov.WorkerClaims {
				fr := f[:len(mu)]
				m.workerClaimRow(ov, int(cl.Val), m.Psi[cl.Part], flat, fr)
				posteriorFromRow(fr, mu)
				for i, fi := range fr {
					num[i] += fi
				}
			}
			for i := range num {
				num[i] += gamma - 1
			}
			m.dFlat[oid] = float64(len(ov.SourceClaims)+len(ov.WorkerClaims)) + float64(len(mu))*(gamma-1)
		}
	}
	if workers == 1 {
		refresh(0, nObj, scr.fBufs[0])
		return
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		lo, hi := g*nObj/workers, (g+1)*nObj/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int, f []float64) {
			defer wg.Done()
			refresh(lo, hi, f)
		}(lo, hi, scr.fBufs[g])
	}
	wg.Wait()
}

//tdh:hotpath
func normalize3(v [3]float64) [3]float64 {
	s := v[0] + v[1] + v[2]
	if s <= 0 {
		return [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	return [3]float64{v[0] / s, v[1] / s, v[2] / s}
}
