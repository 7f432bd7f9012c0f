package core

import "math"

// LogPosterior computes the MAP objective F of Eq. (8): the log-likelihood
// of all records and answers under the current parameters plus the log
// priors of φ, ψ and μ. EM is guaranteed not to decrease F; the test suite
// verifies that property on every workload, which catches E/M-step
// mismatches that accuracy metrics can miss.
func (m *Model) LogPosterior() float64 {
	f := 0.0
	// Likelihood: Σ_o Σ_s log Σ_v P(v_o^s | φ_s, v*=v)·μ_v  (+ workers).
	for oid := range m.Idx.Views {
		ov := m.Idx.ViewAt(oid)
		mu := m.MuAt(oid)
		for _, cl := range ov.SourceClaims {
			phi := m.Phi[cl.Part]
			p := 0.0
			for tr := range mu {
				p += m.sourceClaimProb(ov, int(cl.Val), tr, phi) * mu[tr]
			}
			if p < eps {
				p = eps
			}
			f += math.Log(p)
		}
		for _, cl := range ov.WorkerClaims {
			psi := m.Psi[cl.Part]
			p := 0.0
			for tr := range mu {
				p += m.workerClaimProb(ov, int(cl.Val), tr, psi) * mu[tr]
			}
			if p < eps {
				p = eps
			}
			f += math.Log(p)
		}
	}
	// Dirichlet log-priors (up to the normalizing constants, which are
	// parameter-independent and therefore irrelevant for monotonicity).
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

// dirichletLogKernel returns Σ (α_i - 1)·log(x_i), the parameter-dependent
// part of a Dirichlet log-density.
func dirichletLogKernel(x, alpha []float64) float64 {
	out := 0.0
	for i := range x {
		xi := x[i]
		if xi < eps {
			xi = eps
		}
		out += (alpha[i] - 1) * math.Log(xi)
	}
	return out
}

// StepOnce advances the EM by exactly one plain iteration and reports the
// max confidence delta — exposed for convergence tests and for streaming
// applications that interleave EM steps with new data. NewModel + StepOnce
// is plain EM, the iteration Run accelerates; it does not count towards
// Iterations.
func (m *Model) StepOnce() float64 {
	return m.step(m.Opt.effectiveWorkers())
}
