package core

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/synth"
)

// The no-flip certificate (SettledAt) rests on two facts: the claim model
// puts at most mass 1 on the candidate set for every truth (s_v ≤ 1), and a
// settled object's full EAI score clamps to 0. The tests below check each.

// sweepPsis are the worker trustworthiness values the certificate tests
// score under: the prior mean, the three corners, and one of the model's
// fitted ψ.
func sweepPsis(m *Model) [][3]float64 {
	return append([][3]float64{m.DefaultPsi(), {0.98, 0.01, 0.01}, {0.01, 0.98, 0.01}, {0.01, 0.01, 0.98}}, m.Psi[:min(len(m.Psi), 1)]...)
}

// TestAnswerMassAtMostOne pins s_v = Σ_a P(a | v, ψ) ≤ 1 + |V|·eps (plus
// 1e-12 of float residue) for every candidate v of every object, read two
// ways: from the scalar reference workerClaimProb, and from the kernel's
// answer row (row_v(a)/μ_v, as ExpectedCondMaxAt reads it). It runs under
// every option set the answer row branches on, on the wide fixture (above
// the dense-table cap), Heritages with fitted workers, each also stripped of
// its hierarchy, and BirthPlaces with single-candidate objects, and requires
// the exact, generalisation (Pop2) and wrong (Pop3) classes, the wide rows
// and the stripped inputs under Pop3 to have been met. No fixture is wider
// than settledMaxValues, so SettledAt may certify every object here.
func TestAnswerMassAtMostOne(t *testing.T) {
	var classes [4]int
	wide, flat, maxSlack := 0, 0, 0.0
	for _, opt := range foldOptions() {
		for _, ds := range append(foldDatasets(), singleCandidateAnswered()) {
			m := Run(data.NewIndex(ds), opt)
			for pi, psi := range sweepPsis(m) {
				tab := newPartTab(psi)
				var b claimBuf
				for oid := 0; oid < m.NumObjects(); oid++ {
					ov, mu := m.Idx.ViewAt(oid), m.MuAt(oid)
					if ov.RelRow(0) == nil && ov.NumValues() > 1 {
						// Above the table cap every Pop3 read is O(|V|), so a
						// ψ costs O(|V|³) here: the prior mean and the first
						// corner cover the wide rows.
						if pi > 1 {
							continue
						}
						wide++
					}
					ref, kern := make([]float64, len(mu)), make([]float64, len(mu))
					for a := range mu {
						_, row := m.answerRow(ov, &tab, a, mu, &b)
						for v := range mu {
							ref[v] += m.workerClaimProb(ov, a, v, psi)
							kern[v] += row[v] / mu[v]
							if ov.Hier() && !opt.UniformWorkerErrors {
								classes[ov.Rel(a, v)]++
							}
						}
					}
					if m.Idx.DS.H == nil && len(mu) > 1 && !opt.UniformWorkerErrors {
						flat++
					}
					bound := float64(len(mu)) * eps
					for v := range mu {
						s := max(ref[v], kern[v])
						maxSlack = max(maxSlack, (s-1)/bound)
						if s > 1+bound+1e-12 {
							t.Fatalf("%s %+v object %s, ψ %v, truth %s: s_v %v (scalar), %v (row); want ≤ 1 + %g",
								ds.Name, opt, ov.Object, psi, ov.CI.Values[v], ref[v], kern[v], bound)
						}
					}
				}
			}
		}
	}
	if classes[1] == 0 || classes[2] == 0 || classes[3] == 0 || wide == 0 || flat == 0 {
		t.Fatalf("relationship classes met %v, wide objects %d, stripped-input objects under Pop3 %d: every case must be covered", classes[1:], wide, flat)
	}
	t.Logf("largest (s_v − 1)/(|V|·eps) %.3f; (answer, truth) pairs per class %v; wide-object visits %d; stripped-input visits under Pop3 %d",
		maxSlack, classes[1:], wide, flat)
}

// TestSettledScoresZero is the certificate's end-to-end check: over a
// seeded sweep of BirthPlaces and Heritages fits with crowd answers, each
// also stripped of its hierarchy, under every option set and the sweep ψ
// plus seeded random ψ, every object SettledAt certifies has the full EAI
// score (ExpectedCondMaxAt − max μ)/|O| below eaiAt's clamp floor 1e-9/|O|,
// so the clamped score is exactly 0.
func TestSettledScoresZero(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	settled, total := 0, 0
	for seed := int64(1); seed <= 2; seed++ {
		bp := withCrowdAnswers(synth.BirthPlaces(synth.BirthPlacesConfig{Seed: seed, Scale: 0.03}), 300)
		her := withCrowdAnswers(synth.Heritages(synth.HeritagesConfig{Seed: seed, Scale: 0.1}), 300)
		for _, ds := range []*data.Dataset{bp, her, flatInput(bp), flatInput(her)} {
			idx := data.NewIndex(ds)
			for _, opt := range foldOptions() {
				m := Run(idx, opt)
				psis := sweepPsis(m)
				for range 4 {
					a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
					psis = append(psis, [3]float64{a / (a + b + c), b / (a + b + c), c / (a + b + c)})
				}
				nObj := float64(m.NumObjects())
				for _, psi := range psis {
					tab := NewWorkerTab(psi)
					for oid := 0; oid < m.NumObjects(); oid++ {
						total++
						if !m.SettledAt(oid) {
							continue
						}
						settled++
						if score := (m.ExpectedCondMaxAt(oid, &tab) - m.MaxConfidenceAt(oid)) / nObj; score >= 1e-9/nObj {
							t.Fatalf("%s %+v object %s, ψ %v: settled (N row %v), yet EAI %v·|O| clears the clamp",
								ds.Name, opt, idx.Objects[oid], psi, m.NAt(oid), score*nObj)
						}
					}
				}
			}
		}
	}
	if settled == 0 || settled == total {
		t.Fatalf("%d of %d evaluations settled: the sweep must see both kinds", settled, total)
	}
	t.Logf("%d of %d evaluations settled", settled, total)
}

// TestSettledAt pins the certificate's test: a gap of at least 1 between
// the two largest entries of N, wherever they sit, and no tie; every object
// with a single candidate is settled; nothing is under γ < 1.
func TestSettledAt(t *testing.T) {
	m := Run(data.NewIndex(singleCandidateAnswered()), DefaultOptions())
	oid, singles := -1, 0
	for o := 0; o < m.NumObjects(); o++ {
		switch k := len(m.NAt(o)); {
		case k == 1:
			singles++
			if !m.SettledAt(o) {
				t.Fatalf("single-candidate object %s not settled", m.Idx.Objects[o])
			}
		case k >= 3 && oid < 0:
			oid = o
		}
	}
	if oid < 0 || singles == 0 {
		t.Fatalf("fixture lacks a 3-candidate object (%d) or single-candidate ones (%d)", oid, singles)
	}
	n := m.NAt(oid)
	last := len(n) - 1
	for _, c := range []struct {
		top, runnerUp int
		gap           float64
		want          bool
	}{
		{0, 1, 1, true},
		{last, 0, 1, true},
		{1, last, 3, true},
		{0, 1, 1 - 1e-9, false},
		{0, last, 0.5, false},
		{1, 0, 0, false},
	} {
		clear(n)
		n[c.runnerUp] = 2
		n[c.top] += 2 + c.gap
		if got := m.SettledAt(oid); got != c.want {
			t.Errorf("SettledAt over N %v = %v, want %v", n, got, c.want)
		}
	}
	// Below γ = 1 an N entry can be negative, μ is no distribution, and the
	// proof does not hold.
	clear(n)
	n[0] = 5
	m.Opt.Gamma = 0.5
	if m.SettledAt(oid) {
		t.Errorf("SettledAt over N %v with γ = 0.5 = true, want false", n)
	}
}
