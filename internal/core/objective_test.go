package core

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/synth"
)

// TestEMMonotonicity: MAP-EM must never decrease the log-posterior
// objective F of Eq. (8). This is the strongest structural check of the
// E/M-step pair — a mismatch between the E-step posteriors and the M-step
// updates (or a likelihood that does not normalize) breaks it immediately.
func TestEMMonotonicity(t *testing.T) {
	workloads := []*data.Dataset{
		table1Dataset(t),
		synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 5, Scale: 0.02}),
		synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.05}),
	}
	// Add crowd answers to the synthetic workloads so the worker model's
	// monotonicity is exercised too.
	for _, ds := range workloads[1:] {
		pool := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: 5, Count: 5, Pi: 0.7})
		idx := data.NewIndex(ds)
		rng := newRandForTest(5)
		for i, o := range idx.Objects {
			if i%2 == 0 {
				w := pool[i%len(pool)]
				ds.Answers = append(ds.Answers, data.Answer{
					Object: o, Worker: w.Name, Value: w.Answer(rng, ds, idx.View(o)),
				})
			}
		}
	}
	for _, ds := range workloads {
		// Maximum-likelihood regime (uniform priors): the updates reduce to
		// exact EM on the per-record mixture likelihood of Eq. (8), so the
		// objective must be non-decreasing to numerical precision.
		idx := data.NewIndex(ds)
		opt := DefaultOptions()
		opt.Alpha = [3]float64{1 + 1e-9, 1 + 1e-9, 1 + 1e-9}
		opt.Beta = opt.Alpha
		opt.Gamma = 1 + 1e-9
		m := NewModel(idx, opt)
		prev := m.LogPosterior()
		for iter := 0; iter < 25; iter++ {
			delta := m.StepOnce()
			cur := m.LogPosterior()
			if cur < prev-1e-6 {
				t.Fatalf("%s (ML): objective decreased at iter %d: %v -> %v", ds.Name, iter, prev, cur)
			}
			prev = cur
			if delta < 1e-9 {
				break
			}
		}

		// MAP regime (the paper's Dirichlet priors): Eqs. (9)-(11) are the
		// stationarity conditions of the Lagrangian — a fixed-point
		// iteration that converges but is not a provably monotone MAP-EM.
		// Assert the contract that holds: per-step oscillation is bounded
		// and the iteration converges (delta -> 0).
		idx2 := data.NewIndex(ds)
		m2 := NewModel(idx2, DefaultOptions())
		prev = m2.LogPosterior()
		lastDelta := 1.0
		for iter := 0; iter < 120; iter++ {
			lastDelta = m2.StepOnce()
			cur := m2.LogPosterior()
			slack := 0.02 * (1 + abs(prev))
			if cur < prev-slack {
				t.Fatalf("%s (MAP): objective dropped too far at iter %d: %v -> %v", ds.Name, iter, prev, cur)
			}
			prev = cur
			if lastDelta < 1e-9 {
				break
			}
		}
		if lastDelta > 1e-2 {
			t.Fatalf("%s (MAP): iteration did not converge (last delta %v)", ds.Name, lastDelta)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestObjectiveImprovesOverInit: the fitted objective must beat the
// initialization's.
func TestObjectiveImprovesOverInit(t *testing.T) {
	ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 9, Scale: 0.02})
	idx := data.NewIndex(ds)
	opt := DefaultOptions()
	// Maximum-likelihood regime: exact EM (see TestEMMonotonicity).
	opt.Alpha = [3]float64{1 + 1e-9, 1 + 1e-9, 1 + 1e-9}
	opt.Beta = opt.Alpha
	opt.Gamma = 1 + 1e-9
	init := NewModel(idx, opt).LogPosterior()
	fitted := Run(idx, opt)
	if got := fitted.LogPosterior(); got <= init {
		t.Fatalf("fitted objective %v should beat init %v", got, init)
	}
}

// TestStepOnceMatchesRun: Run and a manually driven plain EM share one E/M
// kernel and one fixed point. Run's first two evaluations are plain steps,
// so at MaxIter = 2 the two agree exactly; run to tolerance, Run gets there
// in fewer evaluations (it extrapolates between plain steps) and lands on
// the same parameters. φ is compared, not μ: Run re-derives μ from the
// refreshed sufficient statistics.
func TestStepOnceMatchesRun(t *testing.T) {
	ds := table1Dataset(t)
	for _, maxIter := range []int{2, DefaultOptions().MaxIter} {
		opt := DefaultOptions()
		opt.MaxIter = maxIter
		idx := data.NewIndex(ds)
		manual := NewModel(idx, opt)
		steps := 0
		for steps < maxIter {
			steps++
			if manual.StepOnce() < opt.Tol {
				break
			}
		}
		auto := Run(data.NewIndex(ds), opt)
		tol := 0.0
		if maxIter > 2 {
			tol = 1e-6 // two iterations stopped by Tol = 1e-7, a few Tol apart
			if auto.Iterations >= steps {
				t.Fatalf("Run took %d evaluations, plain EM %d", auto.Iterations, steps)
			}
		}
		for sid, phi := range auto.Phi {
			mphi := manual.Phi[sid]
			for i := 0; i < 3; i++ {
				if diff := phi[i] - mphi[i]; diff > tol || diff < -tol {
					t.Fatalf("MaxIter=%d: phi(%s) differs: %v vs %v", maxIter, idx.SourceNames[sid], phi, mphi)
				}
			}
		}
	}
}

// refLogPosterior is LogPosterior as the scalar claim model computes it:
// each claim's likelihood summed truth by truth from sourceClaimProb /
// workerClaimProb, one Dirichlet parameter slice per μ row.
func refLogPosterior(m *Model) float64 {
	f := 0.0
	for oid := range m.Idx.Views {
		ov := m.Idx.ViewAt(oid)
		mu := m.MuAt(oid)
		for _, cl := range ov.SourceClaims {
			p := 0.0
			for tr := range mu {
				p += m.sourceClaimProb(ov, int(cl.Val), tr, m.Phi[cl.Part]) * mu[tr]
			}
			f += math.Log(math.Max(p, eps))
		}
		for _, cl := range ov.WorkerClaims {
			p := 0.0
			for tr := range mu {
				p += m.workerClaimProb(ov, int(cl.Val), tr, m.Psi[cl.Part]) * mu[tr]
			}
			f += math.Log(math.Max(p, eps))
		}
	}
	for _, phi := range m.Phi {
		f += dirichletLogKernel(phi[:], []float64{m.Opt.Alpha[0], m.Opt.Alpha[1], m.Opt.Alpha[2]})
	}
	for _, psi := range m.Psi {
		f += dirichletLogKernel(psi[:], []float64{m.Opt.Beta[0], m.Opt.Beta[1], m.Opt.Beta[2]})
	}
	for oid := range m.Idx.Views {
		mu := m.MuAt(oid)
		gammas := make([]float64, len(mu))
		for i := range gammas {
			gammas[i] = m.Opt.Gamma
		}
		f += dirichletLogKernel(mu, gammas)
	}
	return f
}

// TestLogPosteriorMatchesScalarReference: the objective read off the claim
// kernel's z equals the scalar claim model's, to 1e-12 relative, at the
// initialization and at the fit, on every fixture of TestRunGolden and on
// each stripped of its hierarchy.
func TestLogPosteriorMatchesScalarReference(t *testing.T) {
	uniform := DefaultOptions()
	uniform.UniformWorkerErrors = true
	for _, ds := range []*data.Dataset{
		synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 11, Scale: 0.03}),
		withTruthAnswers(synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 5, Scale: 0.02})),
		synth.Heritages(synth.HeritagesConfig{Seed: 11, Scale: 0.1}),
		withTruthAnswers(synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.05})),
		wideDataset(),
	} {
		for _, in := range []*data.Dataset{ds, flatInput(ds)} {
			idx := data.NewIndex(in)
			for _, opt := range []Options{DefaultOptions(), uniform} {
				for _, m := range []*Model{NewModel(idx, opt), Run(idx, opt)} {
					got, want := m.LogPosterior(), refLogPosterior(m)
					if math.Abs(got-want) > 1e-12*math.Abs(want) {
						t.Errorf("%s (hierarchy %v, uniform %v, %d evaluations): LogPosterior %v, scalar reference %v",
							ds.Name, in.H != nil, opt.UniformWorkerErrors, m.Iterations, got, want)
					}
				}
			}
		}
	}
}
