package core

import "math"

// LogPosterior computes the MAP objective F of Eq. (8): the log-likelihood
// of all records and answers under the current parameters plus the log
// priors of φ, ψ and μ. EM is guaranteed not to decrease F; the test suite
// verifies that property on every workload, which catches E/M-step
// mismatches that accuracy metrics can miss.
//
// The likelihood of each claim is z of the E-step's claim kernel, under
// participant tables refilled from the current φ and ψ, so F costs one pass
// over the claims and allocates nothing once the model's scratch exists (a
// model Run returns has dropped it, so the first call re-allocates it).
// Like an EM step it writes that scratch: it runs on a fitted model (not a
// clone) and not concurrently with a fit.
func (m *Model) LogPosterior() float64 {
	scr := m.scratch()
	scr.prepare(m)
	b := &scr.bufs[0]
	f := 0.0
	// Likelihood: Σ_o Σ_s log Σ_v P(v_o^s | φ_s, v*=v)·μ_v  (+ workers).
	for oid := range m.Idx.Views {
		ov := m.Idx.ViewAt(oid)
		mu := m.muRow(oid)
		f += m.claimList(ov, ov.SourceClaims, scr.src, false, mu, nil, nil, b)
		f += m.claimList(ov, ov.WorkerClaims, scr.wkr, true, mu, nil, nil, b)
	}
	// Dirichlet log-priors (up to the normalizing constants, which are
	// parameter-independent and therefore irrelevant for monotonicity).
	for _, phi := range m.Phi {
		f += dirichletLogKernel(phi[:], m.Opt.Alpha[:])
	}
	for _, psi := range m.Psi {
		f += dirichletLogKernel(psi[:], m.Opt.Beta[:])
	}
	gamma := [1]float64{m.Opt.Gamma}
	for oid := range m.Idx.Views {
		f += dirichletLogKernel(m.muRow(oid), gamma[:])
	}
	return f
}

// dirichletLogKernel returns Σ (α_i - 1)·log(x_i), the parameter-dependent
// part of a Dirichlet log-density. alpha repeats cyclically over x: a single
// entry is a symmetric prior.
//
//tdh:hotpath
func dirichletLogKernel(x, alpha []float64) float64 {
	out := 0.0
	for i, xi := range x {
		if xi < eps {
			xi = eps
		}
		out += (alpha[i%len(alpha)] - 1) * math.Log(xi)
	}
	return out
}

// StepOnce advances the EM by exactly one plain iteration and reports the
// max confidence delta — exposed for convergence tests and for streaming
// applications that interleave EM steps with new data. NewModel + StepOnce
// is plain EM, the iteration Run accelerates; it does not count towards
// Iterations.
func (m *Model) StepOnce() float64 {
	return m.step()
}
