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
// The E-step is one claim kernel over reusable scratch buffers. At the top
// of each evaluation it builds a table per source and per worker of what a
// claim takes from θ alone (partTab: the case scales, the flat split), so
// every claim is a fixed pass over its object's precomputed relationship and
// popularity tables in data.ObjectView. Pass A walks objects
// (range-partitioned across workers) and dispatches once per object: a flat
// object with one candidate has the truth posterior [1] whatever θ and μ, so
// its claims only count; every other claim takes two passes over its
// object's candidates, one filling the row and its sum z, one normalising it
// into the μ numerator and the claim's class posterior, which is stored per
// claim. Pass B reduces those class posteriors participant-major through
// the index's CSR transpose. Every float is computed in one order fixed by
// the index (never by the goroutine schedule) and the extrapolation is
// sequential, so results are bit-for-bit identical for any worker count.
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
// confidences and the sufficient statistics agree exactly. Each object's
// refresh reads only its own μ row, so re-deriving it object by object
// gives what refreshing every object first would.
func (m *Model) finish() {
	workers := m.clampWorkers(m.Opt.effectiveWorkers())
	scr := m.scratch()
	scr.prepare(m, workers)
	m.fanOut(workers, scr, (*Model).refreshObjects)
}

// refreshObjects is finish's body over objects [lo, hi) on goroutine g.
//
//tdh:hotpath
func (m *Model) refreshObjects(scr *emScratch, g, lo, hi int) {
	for oid := lo; oid < hi; oid++ {
		m.refreshObjectStats(oid, &scr.claimKernel, &scr.bufs[g])
	}
}

// refreshObjectStats recomputes one object's sufficient statistics N, D
// under the current parameters and re-derives μ = N/D: one local E+M step,
// finish's body and Grow's for a rebuilt object.
//
//tdh:hotpath
func (m *Model) refreshObjectStats(oid int, k *claimKernel, b *claimBuf) {
	ov := m.Idx.ViewAt(oid)
	mu, n := m.muRow(oid), m.nRow(oid)
	clear(n)
	m.claimList(ov, ov.SourceClaims, k.src, false, mu, n, nil, b)
	m.claimList(ov, ov.WorkerClaims, k.wkr, true, mu, n, nil, b)
	gamma := m.Opt.Gamma
	for i := range n {
		n[i] += gamma - 1
	}
	d := float64(len(ov.SourceClaims)+len(ov.WorkerClaims)) + float64(len(mu))*(gamma-1)
	m.dFlat[oid] = d
	if d > 0 {
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

// claimKernel is the claim kernel's working set: one table per source and
// per worker, refilled from φ and ψ before every pass over the claims, and
// one claim buffer per goroutine.
type claimKernel struct {
	src, wkr []partTab
	bufs     []claimBuf
}

// prepare refills the participant tables from m's φ and ψ and makes sure
// there are n claim buffers. It allocates the first time only (and when
// the model has more participants than the tables).
func (k *claimKernel) prepare(m *Model, n int) {
	k.src = fillTabs(k.src, m.Phi)
	k.wkr = fillTabs(k.wkr, m.Psi)
	for len(k.bufs) < n {
		k.bufs = append(k.bufs, claimBuf{})
	}
}

// prepareObjects is prepare for one claim buffer and a pass over the
// objects oids alone, as Grow's local step makes: only participants with a
// claim on one of them get a table.
func (k *claimKernel) prepareObjects(m *Model, oids []int) {
	k.src, k.wkr, k.bufs = make([]partTab, len(m.Phi)), make([]partTab, len(m.Psi)), make([]claimBuf, 1)
	for _, oid := range oids {
		ov := m.Idx.ViewAt(oid)
		for _, cl := range ov.SourceClaims {
			k.src[cl.Part] = newPartTab(m.Phi[cl.Part])
		}
		for _, cl := range ov.WorkerClaims {
			k.wkr[cl.Part] = newPartTab(m.Psi[cl.Part])
		}
	}
}

// fillTabs writes the table of every θ into dst, growing it if needed.
func fillTabs(dst []partTab, thetas [][3]float64) []partTab {
	if cap(dst) < len(thetas) {
		dst = make([]partTab, len(thetas))
	}
	dst = dst[:len(thetas)]
	for i, theta := range thetas {
		dst[i] = newPartTab(theta)
	}
	return dst
}

// emScratch holds the E-step working set, allocated once per Model and
// reused every iteration so the steady state allocates nothing.
type emScratch struct {
	claimKernel
	muNum []float64    // flat μ numerators, same layout as Model.muFlat
	srcG  [][3]float64 // class posterior of every source claim (global ID)
	wkrG  [][3]float64 // class posterior of every worker answer (global ID)
	// The SQUAREM cycle's three iterates θ0, θ1, θ2, each the flattened
	// parameter vector (μ, φ, ψ) in saveParams layout.
	th0, th1, th2 []float64
}

// scratch returns the reusable E-step buffers.
func (m *Model) scratch() *emScratch {
	if m.muFlat == nil {
		panic("core: EM on a cloned model; a clone is fold-only")
	}
	if m.scr == nil {
		nParams := len(m.muFlat) + 3*len(m.Phi) + 3*len(m.Psi)
		m.scr = &emScratch{
			muNum: make([]float64, len(m.muFlat)),
			srcG:  make([][3]float64, m.Idx.NumSourceClaims()),
			wkrG:  make([][3]float64, m.Idx.NumWorkerClaims()),
			th0:   make([]float64, nParams),
			th1:   make([]float64, nParams),
			th2:   make([]float64, nParams),
		}
	}
	return m.scr
}

// clampWorkers bounds a goroutine count to [1, |O|].
func (m *Model) clampWorkers(workers int) int {
	return max(1, min(workers, len(m.Idx.Views)))
}

// fanOut runs body over the object IDs [0, |O|) cut into `workers`
// contiguous ranges, range g on goroutine g, and waits for all of them; one
// worker runs inline and allocates nothing. Every range is owned by one
// goroutine, so per-object and per-claim slots are written without
// synchronization.
func (m *Model) fanOut(workers int, scr *emScratch, body func(m *Model, scr *emScratch, g, lo, hi int)) {
	nObj := len(m.Idx.Views)
	if workers <= 1 {
		body(m, scr, 0, 0, nObj)
		return
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		lo, hi := g*nObj/workers, (g+1)*nObj/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(m, scr, g, lo, hi)
		}()
	}
	wg.Wait()
}

// evaluate performs Run's next E/M evaluation and returns its max confidence
// delta. The position in the three-evaluation SQUAREM cycle is the
// evaluation count itself, so a capped run simply ends mid-cycle.
func (m *Model) evaluate(workers int) float64 {
	switch scr := m.scratch(); m.Iterations % 3 {
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
	workers = m.clampWorkers(workers)
	scr := m.scratch()
	scr.prepare(m, workers)
	clear(scr.muNum)

	// Pass A: per-object truth posteriors. Each goroutine owns a contiguous
	// object range, so every muNum segment and every per-claim slot is
	// written by exactly one goroutine.
	m.fanOut(workers, scr, (*Model).eStepObjects)

	// Pass B folded into the M-step: per-participant reductions over the
	// CSR transpose (order fixed by the index, not the schedule).
	m.FinalDelta = m.mStep(scr, workers)
	return m.FinalDelta
}

// eStepObjects is pass A over objects [lo, hi) on goroutine g: the claim
// kernel over every claim, the truth posteriors accumulating into the
// objects' μ numerators and the class posteriors landing in the per-claim
// slots pass B reduces.
//
//tdh:hotpath
func (m *Model) eStepObjects(scr *emScratch, g, lo, hi int) {
	idx, b := m.Idx, &scr.bufs[g]
	for oid := lo; oid < hi; oid++ {
		ov := idx.ViewAt(oid)
		mu, acc := m.muRow(oid), scr.muNum[m.off[oid]:m.off[oid+1]]
		m.claimList(ov, ov.SourceClaims, scr.src, false, mu, acc, scr.srcG[idx.SrcClaimStart[oid]:idx.SrcClaimStart[oid+1]], b)
		m.claimList(ov, ov.WorkerClaims, scr.wkr, true, mu, acc, scr.wkrG[idx.WkrClaimStart[oid]:idx.WkrClaimStart[oid+1]], b)
	}
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

//tdh:hotpath
func normalize3(v [3]float64) [3]float64 {
	s := v[0] + v[1] + v[2]
	if s <= 0 {
		return [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	return [3]float64{v[0] / s, v[1] / s, v[2] / s}
}
