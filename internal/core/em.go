package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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
// popularity tables in data.ObjectView. Pass A walks objects and dispatches
// once per object: a flat object with one candidate has the truth posterior
// [1] whatever θ and μ, so its claims only count; every other claim takes
// two passes over its object's candidates, one filling the row and its sum
// z, one normalising it into the μ numerator and the claim's class
// posterior, which is stored per claim. The object's μ row is then updated
// (Eq. 9) in the same pass, as nothing else in it reads that row. Pass B
// reduces the class posteriors participant-major through the index's CSR
// transpose into φ and ψ (Eqs. 10–11).
//
// Pass A is the fit's one fork-join per evaluation. A fit on an index of at
// least parallelFloor claims + objects runs it on one goroutine per core
// (fitGoroutines) over contiguous object chunks of about equal claim-kernel
// work, each goroutine taking the next unclaimed chunk: every μ row and
// per-claim slot is written by exactly one goroutine, and each chunk reports
// its max |Δμ|. Pass B and the extrapolation stay sequential, in index
// order. No accumulation order
// ever depends on the goroutine count or the schedule, so results are
// bit-for-bit identical for any count.
func Run(idx *data.Index, opt Options) *Model {
	return run(idx, opt, fitGoroutines(idx))
}

// run is Run on an explicit goroutine count, whatever the index's size.
func run(idx *data.Index, opt Options, goroutines int) *Model {
	m := NewModel(idx, opt)
	m.scr = newScratch(m, goroutines)
	for m.Iterations < m.Opt.MaxIter {
		if m.evaluate() < m.Opt.Tol {
			break
		}
	}
	m.finish()
	// A fitted model is published and kept; its E-step scratch (the
	// per-claim class posteriors and the three SQUAREM iterates) is not, and
	// LogPosterior or StepOnce re-allocate it lazily.
	m.scr = nil
	return m
}

// parallelFloor is the index size, claims + objects, from which a fit fans
// out over the cores. Below it an evaluation is a few hundred microseconds
// of work, and waking an idle core at every fork-join costs more than the
// core saves. README.md ("Performance architecture") has the 1-vs-2
// goroutine table it is read from; every fit the benchmark workloads run
// sits more than 10 % away from it on one side or the other.
const parallelFloor = 16000

// fitGoroutines is the goroutine count of every fit on idx: Run's, finish's
// and StepOnce's.
func fitGoroutines(idx *data.Index) int {
	size := idx.NumSourceClaims() + idx.NumWorkerClaims() + idx.NumObjects()
	return goroutinesFor(size, idx.NumObjects(), runtime.GOMAXPROCS(0))
}

// goroutinesFor is fitGoroutines' rule: one goroutine below parallelFloor,
// otherwise one per core, capped at the object count.
func goroutinesFor(size, objects, procs int) int {
	if size < parallelFloor {
		return 1
	}
	return max(1, min(procs, objects))
}

// finish ends a fit: one final E-step refresh of N and D so the incremental
// EM of the task-assignment stage sees sufficient statistics consistent
// with the final parameters, then μ = N/D re-derived so the exported
// confidences and the sufficient statistics agree exactly. Each object's
// refresh reads only its own μ row, so re-deriving it object by object
// gives what refreshing every object first would.
func (m *Model) finish() {
	scr := m.scratch()
	scr.prepare(m)
	m.fanOut(scr, (*Model).refreshObjects)
}

// refreshObjects is finish's body over chunk c on goroutine g.
//
//tdh:hotpath
func (m *Model) refreshObjects(scr *emScratch, g, c int) {
	for oid := scr.cuts[c]; oid < scr.cuts[c+1]; oid++ {
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

// prepare refills the participant tables from m's φ and ψ. It allocates
// the first time only (and when the model has more participants than the
// tables).
func (k *claimKernel) prepare(m *Model) {
	k.src = fillTabs(k.src, m.Phi)
	k.wkr = fillTabs(k.wkr, m.Psi)
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
	srcG [][3]float64 // class posterior of every source claim (global ID)
	wkrG [][3]float64 // class posterior of every worker answer (global ID)
	// cuts splits the object IDs into the fan-out's chunks, chunk c being
	// [cuts[c], cuts[c+1]); deltas[c] is chunk c's max |Δμ| in the last
	// evaluation, and next the next chunk a goroutine takes. bufs has one
	// claim buffer per goroutine.
	cuts   []int
	deltas []float64
	next   atomic.Int64
	wg     sync.WaitGroup
	// The SQUAREM cycle's three iterates θ0, θ1, θ2, each the flattened
	// parameter vector (μ, φ, ψ) in saveParams layout.
	th0, th1, th2 []float64
}

// scratch returns the reusable E-step buffers, built for the index's
// goroutine count if the model has none.
func (m *Model) scratch() *emScratch {
	if m.muFlat == nil {
		panic("core: EM on a cloned model; a clone is fold-only")
	}
	if m.scr == nil {
		m.scr = newScratch(m, fitGoroutines(m.Idx))
	}
	return m.scr
}

// chunksPerGoroutine is how many chunks a fanned-out pass is cut into per
// goroutine. A goroutine the fork starts on an idle core begins ~100 µs
// late (measured on a 2-vCPU VM), a sixth of a BirthPlaces evaluation;
// with one fixed range each, the calling goroutine would then wait that
// long at every join. Taking chunks from a shared counter, it does the late
// goroutine's share in the meantime instead.
const chunksPerGoroutine = 8

// newScratch allocates the E-step buffers of a fit on `goroutines`
// goroutines, bounded to [1, |O|].
func newScratch(m *Model, goroutines int) *emScratch {
	goroutines = max(1, min(goroutines, len(m.Idx.Views)))
	chunks := 1
	if goroutines > 1 {
		chunks = min(chunksPerGoroutine*goroutines, len(m.Idx.Views))
	}
	nParams := len(m.muFlat) + 3*len(m.Phi) + 3*len(m.Psi)
	return &emScratch{
		claimKernel: claimKernel{bufs: make([]claimBuf, goroutines)},
		srcG:        make([][3]float64, m.Idx.NumSourceClaims()),
		wkrG:        make([][3]float64, m.Idx.NumWorkerClaims()),
		cuts:        cutRanges(m.Idx, chunks),
		deltas:      make([]float64, chunks),
		th0:         make([]float64, nParams),
		th1:         make([]float64, nParams),
		th2:         make([]float64, nParams),
	}
}

// cutRanges cuts the object IDs into n contiguous, non-empty ranges
// (1 <= n <= |O|, or n = 1) of about equal claim-kernel work, returning the
// n+1 boundaries. An object costs its claims times its candidates, plus one.
func cutRanges(idx *data.Index, n int) []int {
	nObj := len(idx.Views)
	cuts := make([]int, n+1)
	cuts[n] = nObj
	work := make([]int64, nObj)
	var total int64
	for oid := range work {
		ov := idx.ViewAt(oid)
		work[oid] = int64(len(ov.SourceClaims)+len(ov.WorkerClaims))*int64(ov.CI.NumValues()) + 1
		total += work[oid]
	}
	var done int64
	r := 1
	for oid, w := range work {
		done += w
		for ; r < n && done*int64(n) >= total*int64(r); r++ {
			cuts[r] = oid + 1
		}
	}
	// One object's work can span several targets: keep every range non-empty.
	for r := 1; r < n; r++ {
		cuts[r] = max(cuts[r], cuts[r-1]+1)
	}
	for r := n - 1; r >= 1; r-- {
		cuts[r] = min(cuts[r], cuts[r+1]-1)
	}
	return cuts
}

// fanOut runs body over every chunk of the scratch on the scratch's
// goroutines and waits for all of them: the calling goroutine is goroutine
// 0 and starts at once, and each goroutine takes the next unclaimed chunk
// until none is left. With one goroutine it runs inline and allocates
// nothing; each further goroutine costs one goroutine start. Every chunk is
// owned by the one goroutine that took it, so per-object, per-claim and
// per-chunk slots are written without synchronization, and what a chunk
// computes does not depend on which goroutine took it.
func (m *Model) fanOut(scr *emScratch, body func(m *Model, scr *emScratch, g, c int)) {
	scr.next.Store(0)
	for g := 1; g < len(scr.bufs); g++ {
		scr.wg.Add(1)
		go func() {
			defer scr.wg.Done()
			m.takeChunks(scr, body, g)
		}()
	}
	m.takeChunks(scr, body, 0)
	scr.wg.Wait()
}

// takeChunks is goroutine g's share of a fanOut: a method, not a closure
// the go statements capture, so a fanOut on one goroutine allocates nothing.
func (m *Model) takeChunks(scr *emScratch, body func(m *Model, scr *emScratch, g, c int), g int) {
	for c := int(scr.next.Add(1) - 1); c < len(scr.cuts)-1; c = int(scr.next.Add(1) - 1) {
		body(m, scr, g, c)
	}
}

// evaluate performs Run's next E/M evaluation and returns its max confidence
// delta. The position in the three-evaluation SQUAREM cycle is the
// evaluation count itself, so a capped run simply ends mid-cycle.
func (m *Model) evaluate() float64 {
	switch scr := m.scratch(); m.Iterations % 3 {
	case 0:
		m.saveParams(scr.th0)
	case 1:
		m.saveParams(scr.th1)
	case 2:
		m.extrapolate(scr)
	}
	m.Iterations++
	return m.step()
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
// depends on the goroutine count or the schedule.
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
// which it also records as FinalDelta: pass A with the μ update on the
// scratch's goroutines, then pass B sequentially.
func (m *Model) step() float64 {
	scr := m.scratch()
	scr.prepare(m)
	m.fanOut(scr, (*Model).eStepObjects)
	maxDelta := 0.0
	for _, d := range scr.deltas {
		if d > maxDelta {
			maxDelta = d
		}
	}
	m.updatePhi(scr)
	m.updatePsi(scr)
	m.FinalDelta = maxDelta
	return maxDelta
}

// eStepObjects is pass A over chunk c on goroutine g: the claim kernel
// over every claim, the truth posteriors accumulating into the object's μ
// numerators (one row per goroutine) and the class posteriors landing in
// the per-claim slots pass B reduces, then the object's μ update. It
// records the chunk's max confidence delta as scr.deltas[c].
//
//tdh:hotpath
func (m *Model) eStepObjects(scr *emScratch, g, c int) {
	idx, b := m.Idx, &scr.bufs[g]
	maxDelta := 0.0
	for oid := scr.cuts[c]; oid < scr.cuts[c+1]; oid++ {
		ov := idx.ViewAt(oid)
		mu, num := m.muRow(oid), b.numFor(ov.CI.NumValues())
		m.claimList(ov, ov.SourceClaims, scr.src, false, mu, num, scr.srcG[idx.SrcClaimStart[oid]:idx.SrcClaimStart[oid+1]], b)
		m.claimList(ov, ov.WorkerClaims, scr.wkr, true, mu, num, scr.wkrG[idx.WkrClaimStart[oid]:idx.WkrClaimStart[oid+1]], b)
		if d := m.updateMu(mu, num, len(ov.SourceClaims)+len(ov.WorkerClaims)); d > maxDelta {
			maxDelta = d
		}
	}
	scr.deltas[c] = maxDelta
}

// updateMu applies Eq. (9) to one object's μ row from its numerators and
// claim count, and returns the row's max confidence delta.
//
//tdh:hotpath
func (m *Model) updateMu(mu, num []float64, nClaims int) float64 {
	gamma := m.Opt.Gamma
	den := float64(nClaims) + float64(len(mu))*(gamma-1)
	if den <= 0 {
		return 0
	}
	maxDelta := 0.0
	for i := range mu {
		nv := num[i] + gamma - 1
		v := nv / den
		if d := math.Abs(v - mu[i]); d > maxDelta {
			maxDelta = d
		}
		mu[i] = v
	}
	return maxDelta
}

// updatePhi applies Eq. (10) to every source, reducing the per-claim class
// posteriors through the CSR transpose in index order.
//
//tdh:hotpath
func (m *Model) updatePhi(scr *emScratch) {
	alphaSum := m.Opt.Alpha[0] + m.Opt.Alpha[1] + m.Opt.Alpha[2] - 3
	for sid := range m.Phi {
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

// updatePsi applies Eq. (11) to every worker.
//
//tdh:hotpath
func (m *Model) updatePsi(scr *emScratch) {
	betaSum := m.Opt.Beta[0] + m.Opt.Beta[1] + m.Opt.Beta[2] - 3
	for wid := range m.Psi {
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
