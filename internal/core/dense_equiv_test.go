package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/synth"
)

// This file pins the dense-ID engine (precomputed relationship/popularity
// tables, scratch-buffer E-step) to a reference implementation that mirrors
// the seed engine: relationship by linear ancestor scan, Pop2/Pop3 computed
// on the fly, per-iteration accumulator allocation, division instead of
// precomputed reciprocals. The reference is plain EM and stays plain. It
// pins two things: the dense E/M kernel, driven plainly through StepOnce,
// agrees with it on Truths exactly and on μ/φ/ψ within 1e-9 on the
// synthetic workloads; and Run, which accelerates that kernel, stops at a
// fixed point of the reference step — the optimum plain EM converges to.

// refEngine is the seed EM, ID-indexed for convenience but using none of
// the precomputed tables.
type refEngine struct {
	idx *data.Index
	opt Options
	mu  [][]float64
	phi [][3]float64
	psi [][3]float64
	n   [][]float64
	d   []float64
	it  int
}

func refRelationship(ov *data.ObjectView, c, tr int) int {
	if c == tr {
		return 1
	}
	for _, a := range ov.CI.Anc[tr] {
		if a == c {
			return 2
		}
	}
	return 3
}

func refPop2(ov *data.ObjectView, v, tr int) float64 {
	den := 0
	for _, a := range ov.CI.Anc[tr] {
		den += ov.ValueCount[a]
	}
	if den == 0 {
		if g := ov.CI.GoSize(tr); g > 0 {
			return 1.0 / float64(g)
		}
		return 0
	}
	return float64(ov.ValueCount[v]) / float64(den)
}

func refPop3(ov *data.ObjectView, v, tr int) float64 {
	den := 0
	wrong := 0
	isAncOfTr := make(map[int]bool, len(ov.CI.Anc[tr]))
	for _, a := range ov.CI.Anc[tr] {
		isAncOfTr[a] = true
	}
	for i, c := range ov.ValueCount {
		if i == tr || isAncOfTr[i] {
			continue
		}
		wrong++
		den += c
	}
	if den == 0 {
		if wrong > 0 {
			return 1.0 / float64(wrong)
		}
		return 0
	}
	return float64(ov.ValueCount[v]) / float64(den)
}

func (r *refEngine) flat(ov *data.ObjectView) bool {
	return r.opt.FlatModel || !ov.CI.Hier
}

func (r *refEngine) sourceProb(ov *data.ObjectView, c, tr int, phi [3]float64) float64 {
	nV := ov.CI.NumValues()
	if r.flat(ov) {
		if nV <= 1 {
			return 1
		}
		if c == tr {
			return phi[0] + phi[1]
		}
		return math.Max(phi[2]/float64(nV-1), eps)
	}
	goSize := ov.CI.GoSize(tr)
	rest := nV - goSize - 1
	scale := caseScale(phi, goSize > 0, rest > 0)
	switch refRelationship(ov, c, tr) {
	case 1:
		return math.Max(scale*phi[0], eps)
	case 2:
		return math.Max(scale*phi[1]/float64(goSize), eps)
	default:
		if rest <= 0 {
			return eps
		}
		return math.Max(scale*phi[2]/float64(rest), eps)
	}
}

func (r *refEngine) workerProb(ov *data.ObjectView, c, tr int, psi [3]float64) float64 {
	nV := ov.CI.NumValues()
	if r.flat(ov) {
		if nV <= 1 {
			return 1
		}
		if c == tr {
			return psi[0] + psi[1]
		}
		p3 := 1.0 / float64(nV-1)
		if !r.opt.UniformWorkerErrors {
			p3 = refPop3(ov, c, tr)
		}
		return math.Max(psi[2]*p3, eps)
	}
	goSize := ov.CI.GoSize(tr)
	rest := nV - goSize - 1
	scale := caseScale(psi, goSize > 0, rest > 0)
	switch refRelationship(ov, c, tr) {
	case 1:
		return math.Max(scale*psi[0], eps)
	case 2:
		p2 := 1.0 / float64(goSize)
		if !r.opt.UniformWorkerErrors {
			p2 = refPop2(ov, c, tr)
		}
		return math.Max(scale*psi[1]*p2, eps)
	default:
		if rest <= 0 {
			return eps
		}
		p3 := 1.0 / float64(rest)
		if !r.opt.UniformWorkerErrors {
			p3 = refPop3(ov, c, tr)
		}
		return math.Max(scale*psi[2]*p3, eps)
	}
}

func (r *refEngine) posterior(ov *data.ObjectView, mu []float64, c int, theta [3]float64, worker bool) []float64 {
	f := make([]float64, len(mu))
	z := 0.0
	for tr := range mu {
		var p float64
		if worker {
			p = r.workerProb(ov, c, tr, theta)
		} else {
			p = r.sourceProb(ov, c, tr, theta)
		}
		p *= mu[tr]
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

func (r *refEngine) classPost(ov *data.ObjectView, c int, theta [3]float64, f []float64) [3]float64 {
	var g [3]float64
	if r.flat(ov) {
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
	for tr, fi := range f {
		switch refRelationship(ov, c, tr) {
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

func (r *refEngine) step() float64 {
	idx := r.idx
	muNum := make([][]float64, len(r.mu))
	for i := range r.mu {
		muNum[i] = make([]float64, len(r.mu[i]))
	}
	phiNum := make([][3]float64, len(r.phi))
	psiNum := make([][3]float64, len(r.psi))
	for oid := range idx.Views {
		ov := idx.ViewAt(oid)
		mu := r.mu[oid]
		for _, cl := range ov.SourceClaims {
			phi := r.phi[cl.Part]
			f := r.posterior(ov, mu, int(cl.Val), phi, false)
			for i, fi := range f {
				muNum[oid][i] += fi
			}
			g := r.classPost(ov, int(cl.Val), phi, f)
			phiNum[cl.Part][0] += g[0]
			phiNum[cl.Part][1] += g[1]
			phiNum[cl.Part][2] += g[2]
		}
		for _, cl := range ov.WorkerClaims {
			psi := r.psi[cl.Part]
			f := r.posterior(ov, mu, int(cl.Val), psi, true)
			for i, fi := range f {
				muNum[oid][i] += fi
			}
			g := r.classPost(ov, int(cl.Val), psi, f)
			psiNum[cl.Part][0] += g[0]
			psiNum[cl.Part][1] += g[1]
			psiNum[cl.Part][2] += g[2]
		}
	}
	gamma := r.opt.Gamma
	maxDelta := 0.0
	for oid, mu := range r.mu {
		ov := idx.ViewAt(oid)
		nClaims := len(ov.SourceClaims) + len(ov.WorkerClaims)
		den := float64(nClaims) + float64(len(mu))*(gamma-1)
		if den <= 0 {
			continue
		}
		for i := range mu {
			v := (muNum[oid][i] + gamma - 1) / den
			if d := math.Abs(v - mu[i]); d > maxDelta {
				maxDelta = d
			}
			mu[i] = v
		}
	}
	alphaSum := r.opt.Alpha[0] + r.opt.Alpha[1] + r.opt.Alpha[2] - 3
	for sid := range r.phi {
		den := float64(len(idx.SourceObjIDs[sid])) + alphaSum
		if den <= 0 {
			continue
		}
		r.phi[sid] = normalize3([3]float64{
			(phiNum[sid][0] + r.opt.Alpha[0] - 1) / den,
			(phiNum[sid][1] + r.opt.Alpha[1] - 1) / den,
			(phiNum[sid][2] + r.opt.Alpha[2] - 1) / den,
		})
	}
	betaSum := r.opt.Beta[0] + r.opt.Beta[1] + r.opt.Beta[2] - 3
	for wid := range r.psi {
		den := float64(len(idx.WorkerObjIDs[wid])) + betaSum
		if den <= 0 {
			continue
		}
		r.psi[wid] = normalize3([3]float64{
			(psiNum[wid][0] + r.opt.Beta[0] - 1) / den,
			(psiNum[wid][1] + r.opt.Beta[1] - 1) / den,
			(psiNum[wid][2] + r.opt.Beta[2] - 1) / den,
		})
	}
	return maxDelta
}

// muRows lists every object's μ row by dense ID.
func muRows(m *Model) [][]float64 {
	rows := make([][]float64, m.NumObjects())
	for oid := range rows {
		rows[oid] = m.MuAt(oid)
	}
	return rows
}

// refRun is plain EM as core.Run ran it before acceleration: initialize,
// iterate to tolerance or MaxIter, refresh sufficient statistics, re-derive
// μ = N/D.
func refRun(idx *data.Index, opt Options) *refEngine {
	opt = opt.WithDefaults()
	r := &refEngine{idx: idx, opt: opt}
	// Initialization is identical by construction: reuse the model's.
	m := NewModel(idx, opt)
	r.mu = make([][]float64, m.NumObjects())
	for i, mu := range muRows(m) {
		r.mu[i] = append([]float64(nil), mu...)
	}
	r.phi = append([][3]float64(nil), m.Phi...)
	r.psi = append([][3]float64(nil), m.Psi...)
	for iter := 0; iter < opt.MaxIter; iter++ {
		r.it = iter + 1
		if r.step() < opt.Tol {
			break
		}
	}
	r.n = make([][]float64, len(r.mu))
	r.d = make([]float64, len(r.mu))
	gamma := opt.Gamma
	for oid := range idx.Views {
		ov := idx.ViewAt(oid)
		mu := r.mu[oid]
		num := make([]float64, len(mu))
		for _, cl := range ov.SourceClaims {
			f := r.posterior(ov, mu, int(cl.Val), r.phi[cl.Part], false)
			for i, fi := range f {
				num[i] += fi
			}
		}
		for _, cl := range ov.WorkerClaims {
			f := r.posterior(ov, mu, int(cl.Val), r.psi[cl.Part], true)
			for i, fi := range f {
				num[i] += fi
			}
		}
		for i := range num {
			num[i] += gamma - 1
		}
		r.n[oid] = num
		r.d[oid] = float64(len(ov.SourceClaims)+len(ov.WorkerClaims)) + float64(len(mu))*(gamma-1)
	}
	for oid, mu := range r.mu {
		if r.d[oid] <= 0 {
			continue
		}
		for i := range mu {
			mu[i] = r.n[oid][i] / r.d[oid]
		}
	}
	return r
}

func (r *refEngine) truths() map[string]string {
	out := make(map[string]string, len(r.mu))
	for oid, mu := range r.mu {
		ov := r.idx.ViewAt(oid)
		best, bestP, bestDepth := "", -1.0, -1
		for i, p := range mu {
			v := ov.CI.Values[i]
			d := 0
			if r.idx.DS.H != nil {
				d = r.idx.DS.H.Depth(v)
			}
			if p > bestP+1e-15 || (p > bestP-1e-15 && (d > bestDepth || (d == bestDepth && (best == "" || v < best)))) {
				best, bestP, bestDepth = v, p, d
			}
		}
		out[ov.Object] = best
	}
	return out
}

// plainRun drives the dense kernel the way refRun drives the reference: n
// plain StepOnce calls from the shared initialization, then Run's own
// finish. It fails the test if the dense kernel meets Tol before step n —
// the reference did not.
func plainRun(t *testing.T, idx *data.Index, opt Options, n int) *Model {
	t.Helper()
	m := NewModel(idx, opt)
	for i := 1; i <= n; i++ {
		if m.StepOnce() < m.Opt.Tol && i < n {
			t.Fatalf("dense kernel met Tol at step %d, reference at %d", i, n)
		}
	}
	m.finish()
	return m
}

func checkDenseMatchesReference(t *testing.T, ds *data.Dataset, opt Options) {
	t.Helper()
	idx := data.NewIndex(ds)
	ref := refRun(data.NewIndex(ds), opt)
	m := plainRun(t, idx, opt, ref.it)

	if ref.it < ref.opt.MaxIter && m.FinalDelta >= m.Opt.Tol {
		t.Fatalf("reference met Tol at step %d, dense kernel did not (delta %v)", ref.it, m.FinalDelta)
	}
	want := ref.truths()
	for o, v := range m.Truths() {
		if want[o] != v {
			t.Fatalf("truth differs on %s: dense=%q reference=%q", o, v, want[o])
		}
	}
	const tol = 1e-9
	for oid, mu := range muRows(m) {
		for i := range mu {
			if math.Abs(mu[i]-ref.mu[oid][i]) > tol {
				t.Fatalf("mu differs on %s[%d]: dense=%v reference=%v",
					idx.Objects[oid], i, mu[i], ref.mu[oid][i])
			}
		}
	}
	for sid, phi := range m.Phi {
		for i := 0; i < 3; i++ {
			if math.Abs(phi[i]-ref.phi[sid][i]) > tol {
				t.Fatalf("phi differs on %s: dense=%v reference=%v",
					idx.SourceNames[sid], phi, ref.phi[sid])
			}
		}
	}
	for wid, psi := range m.Psi {
		for i := 0; i < 3; i++ {
			if math.Abs(psi[i]-ref.psi[wid][i]) > tol {
				t.Fatalf("psi differs on %s: dense=%v reference=%v",
					idx.WorkerNames[wid], psi, ref.psi[wid])
			}
		}
	}
	for oid := range muRows(m) {
		if math.Abs(m.DAt(oid)-ref.d[oid]) > tol {
			t.Fatalf("D differs on %s", idx.Objects[oid])
		}
		for i := range m.NAt(oid) {
			if math.Abs(m.NAt(oid)[i]-ref.n[oid][i]) > tol {
				t.Fatalf("N differs on %s[%d]", idx.Objects[oid], i)
			}
		}
	}
}

func TestDenseEngineMatchesSeedBirthPlaces(t *testing.T) {
	ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 11, Scale: 0.03})
	checkDenseMatchesReference(t, ds, DefaultOptions())
}

func TestDenseEngineMatchesSeedHeritages(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 11, Scale: 0.1})
	checkDenseMatchesReference(t, ds, DefaultOptions())
}

// withTruthAnswers adds a correct crowd answer to every third object, so
// the worker model (Pop2/Pop3 tables) is exercised.
func withTruthAnswers(ds *data.Dataset) *data.Dataset {
	for i, o := range ds.Objects() {
		if i%3 == 0 {
			ds.Answers = append(ds.Answers, data.Answer{
				Object: o, Worker: "w" + string(rune('a'+i%7)), Value: ds.Truth[o],
			})
		}
	}
	return ds
}

func TestDenseEngineMatchesSeedWithWorkersAndAblations(t *testing.T) {
	ds := withTruthAnswers(synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 5, Scale: 0.02}))
	for _, opt := range []Options{
		DefaultOptions(),
		func() Options { o := DefaultOptions(); o.FlatModel = true; return o }(),
		func() Options { o := DefaultOptions(); o.UniformWorkerErrors = true; return o }(),
	} {
		checkDenseMatchesReference(t, ds, opt)
	}
}

// singleCandidateAnswered is BirthPlaces with two worker answers on every
// object whose sources all agree, answers that keep its one candidate, plus
// withTruthAnswers' answers: most answered objects then take the claim
// kernel's single-candidate path.
func singleCandidateAnswered() *data.Dataset {
	ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: 0.02})
	idx := data.NewIndex(ds)
	for oid := range idx.Views {
		if ov := idx.ViewAt(oid); ov.CI.NumValues() == 1 {
			for _, w := range []string{"wa", "wb"} {
				ds.Answers = append(ds.Answers, data.Answer{Object: ov.Object, Worker: w, Value: ov.CI.Values[0]})
			}
		}
	}
	return withTruthAnswers(ds)
}

// TestDenseEngineMatchesSeedWideAndSingleCandidate covers the two claim
// kernel paths the synthetic workloads reach least: an object above the
// dense-table cap (wideDataset, with both ablations) and answered objects
// with a single candidate.
func TestDenseEngineMatchesSeedWideAndSingleCandidate(t *testing.T) {
	for _, opt := range []Options{
		DefaultOptions(),
		func() Options { o := DefaultOptions(); o.FlatModel = true; return o }(),
		func() Options { o := DefaultOptions(); o.UniformWorkerErrors = true; return o }(),
	} {
		checkDenseMatchesReference(t, wideDataset(), opt)
	}
	checkDenseMatchesReference(t, singleCandidateAnswered(), DefaultOptions())
}

// TestRunReachesPlainFixedPoint pins what acceleration must not change: on
// the package's fixtures Run stops where plain EM would, only sooner. These
// are pinned fixtures, not a universal property — EM's fixed point depends
// on the path when the posterior has near-saddles, and a rare input sends
// the accelerated path to a neighbouring stationary point.
func TestRunReachesPlainFixedPoint(t *testing.T) {
	table1Answered := table1Dataset(t)
	table1Answered.Answers = []data.Answer{
		{Object: "bigben", Worker: "w1", Value: "London"},
		{Object: "bigben", Worker: "w2", Value: "London"},
		{Object: "bigben", Worker: "w3", Value: "London"},
	}
	for _, ds := range []*data.Dataset{
		table1Dataset(t),
		table1Answered,
		synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 11, Scale: 0.03}),
		withTruthAnswers(synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 5, Scale: 0.02})),
		synth.Heritages(synth.HeritagesConfig{Seed: 11, Scale: 0.1}),
		withTruthAnswers(synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.05})),
	} {
		name := fmt.Sprintf("%s/%d answers", ds.Name, len(ds.Answers))
		idx := data.NewIndex(ds)
		m := Run(idx, DefaultOptions())
		if m.FinalDelta >= m.Opt.Tol {
			t.Fatalf("%s: Run stopped at the cap: %d evaluations, delta %v", name, m.Iterations, m.FinalDelta)
		}

		// A fixed point of the reference step, to the tolerance Run claims.
		r := &refEngine{idx: idx, opt: m.Opt,
			phi: append([][3]float64(nil), m.Phi...), psi: append([][3]float64(nil), m.Psi...)}
		for _, mu := range muRows(m) {
			r.mu = append(r.mu, append([]float64(nil), mu...))
		}
		if d := r.step(); d >= m.Opt.Tol {
			t.Errorf("%s: a reference step moves Run's output by %v", name, d)
		}

		// Plain EM: at the default cap (what Run returned before it was
		// accelerated), at Tol, and driven on to 1e-10.
		plain := NewModel(idx, DefaultOptions())
		cappedLP, plainIt, it := math.NaN(), 0, 0
		for d := 1.0; d >= 1e-10; {
			d = plain.StepOnce()
			it++
			if plainIt == 0 && d < plain.Opt.Tol {
				plainIt = it
			}
			if it == plain.Opt.MaxIter {
				// Scored here, not from a Clone scored later: a clone shares
				// φ/ψ and every page with plain, which the steps that follow
				// keep writing.
				cappedLP = plain.LogPosterior()
			}
		}
		if math.IsNaN(cappedLP) {
			cappedLP = plain.LogPosterior()
		}
		t.Logf("%s: Run %d evaluations, plain EM %d iterations to Tol, %d to 1e-10", name, m.Iterations, plainIt, it)
		if 2*m.Iterations > plainIt {
			t.Errorf("%s: Run took %d evaluations, plain EM %d iterations", name, m.Iterations, plainIt)
		}
		if f, fc := m.LogPosterior(), cappedLP; f < fc-1e-6*math.Abs(fc) {
			t.Errorf("%s: log-posterior %v below plain EM's %v", name, f, fc)
		}
		const tol = 1e-4
		want := plain.Truths()
		got := m.Truths()
		for oid, mu := range muRows(m) {
			top, second := 0.0, 0.0
			for i, p := range plain.MuAt(oid) {
				if math.Abs(mu[i]-p) > tol {
					t.Fatalf("%s: mu differs on %s[%d]: Run=%v plain=%v", name, idx.Objects[oid], i, mu[i], p)
				}
				if p > top {
					top, second = p, top
				} else if p > second {
					second = p
				}
			}
			if o := idx.Objects[oid]; top-second > tol && got[o] != want[o] {
				t.Errorf("%s: truth differs on %s: Run=%q plain=%q", name, o, got[o], want[o])
			}
		}
	}
}

// TestStepSteadyStateAllocs: after the first pass builds the scratch
// buffers, neither a plain EM iteration nor a whole accelerated cycle (two
// plain steps, extrapolation and projection, stabilising step) allocates —
// nor do the other users of the claim kernel: finish, Grow's local step on
// a rebuilt object, and LogPosterior. The wide fixture adds the rows an
// object above the dense-table cap materialises. Fanned out over two
// goroutines, a cycle and finish allocate only their goroutine starts.
func TestStepSteadyStateAllocs(t *testing.T) {
	for _, ds := range []*data.Dataset{synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 2, Scale: 0.02}), wideDataset()} {
		idx := data.NewIndex(ds)
		m := NewModel(idx, DefaultOptions())
		m.StepOnce() // warm up scratch
		allocs := testing.AllocsPerRun(5, func() { m.StepOnce() })
		if allocs > 0 {
			t.Fatalf("%s: sequential StepOnce allocates %v per iteration in steady state", ds.Name, allocs)
		}
		cycle := func() {
			for i := 0; i < 3; i++ {
				m.evaluate()
			}
		}
		m = NewModel(idx, DefaultOptions())
		cycle()
		if allocs := testing.AllocsPerRun(3, cycle); allocs > 0 {
			t.Fatalf("%s: an accelerated cycle allocates %v in steady state", ds.Name, allocs)
		}
		if allocs := testing.AllocsPerRun(3, m.finish); allocs > 0 {
			t.Fatalf("%s: finish allocates %v in steady state", ds.Name, allocs)
		}
		if allocs := testing.AllocsPerRun(3, func() { m.LogPosterior() }); allocs > 0 {
			t.Fatalf("%s: LogPosterior allocates %v in steady state", ds.Name, allocs)
		}
		// Grow's local step, with the kernel Grow prepares for it.
		oids := make([]int, idx.NumObjects())
		for oid := range oids {
			oids[oid] = oid
		}
		var k claimKernel
		k.prepareObjects(m, oids)
		local := func() {
			for _, oid := range oids {
				m.refreshObjectStats(oid, &k, &k.bufs[0])
			}
		}
		local()
		if allocs := testing.AllocsPerRun(3, local); allocs > 0 {
			t.Fatalf("%s: Grow's local step allocates %v in steady state", ds.Name, allocs)
		}
		// Two goroutines: each evaluation and finish start one goroutine.
		m = NewModel(idx, DefaultOptions())
		m.scr = newScratch(m, 2)
		cycle()
		if allocs := testing.AllocsPerRun(3, cycle); allocs > 3 {
			t.Fatalf("%s: a fanned-out cycle allocates %v in steady state, want at most its 3 goroutine starts", ds.Name, allocs)
		}
		if allocs := testing.AllocsPerRun(3, m.finish); allocs > 1 {
			t.Fatalf("%s: a fanned-out finish allocates %v in steady state, want at most its goroutine start", ds.Name, allocs)
		}
	}
}
