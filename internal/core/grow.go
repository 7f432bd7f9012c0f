package core

import "repro/internal/data"

// Grow returns a model resized to next — an index produced by
// data.Index.Extend over m.Idx — without a full refit. Because Extend keeps
// dense IDs stable, every fitted parameter transfers by position:
//
//   - sources and workers keep their fitted φ/ψ; new ones start at the
//     prior mean, exactly like unseen participants in PhiOf/PsiOf;
//   - untouched objects keep their μ row and sufficient statistics N, D
//     verbatim (their candidate sets cannot have changed);
//   - touched objects — new ones, and existing ones whose candidate set or
//     claim list grew — are re-seeded: the vote initialization over the new
//     candidate set, blended with the previously fitted confidences where a
//     candidate already existed, followed by one local E-step under the
//     current global parameters to rebuild N and D and re-derive μ = N/D.
//
// The result is a model the streaming layers can use immediately: the
// incremental EM (ApplyAnswer, CondMaxConfidence) folds answers for new
// objects in O(|Vo|), and the EAI planner's UEAI bound (1-maxμ)/(|O|(D+1))
// ranks fresh objects near the top of the scan — the cold-object path —
// since their D is small. Touched objects converge fully at the next
// policy-triggered refit; Grow keeps them consistent, not optimal.
//
// Grow never mutates m and shares no page with it: it is a fresh build, flat
// arrays and all, read out of m — a fitted model or a folded clone — through
// the page accessors, so a published snapshot holding m keeps serving
// lock-free and the result can be cloned and folded like any fit.
func (m *Model) Grow(next *data.Index, touched []int) *Model {
	g := newModelShell(next, m.Opt)
	g.Iterations, g.FinalDelta = m.Iterations, m.FinalDelta
	copy(g.Phi, m.Phi) // stable prefix; the rest stays at the prior mean
	copy(g.Psi, m.Psi)

	touchedSet := make(map[int]bool, len(touched))
	for _, oid := range touched {
		touchedSet[oid] = true
	}
	for oid := range m.Idx.Views {
		if touchedSet[oid] {
			continue
		}
		copy(g.muRow(oid), m.MuAt(oid))
		copy(g.nRow(oid), m.NAt(oid))
		g.dFlat[oid] = m.DAt(oid)
	}

	var counts, f []float64
	for _, oid := range touched {
		counts = g.initObjectMu(oid, counts)
		if oid < len(m.Idx.Views) {
			g.blendPreviousMu(oid, m)
		}
		f = g.refreshObjectStats(oid, f)
	}
	return g
}

// blendPreviousMu folds the previously fitted confidences of a rebuilt
// object into its freshly vote-initialized μ row: candidates that existed
// before take their fitted value, new candidates keep their vote-init mass,
// and the row is renormalized. The learned ranking survives the rebuild
// while new values start with the same prior weight a from-scratch
// initialization would give them.
func (g *Model) blendPreviousMu(oid int, prev *Model) {
	oldOv := prev.Idx.ViewAt(oid)
	oldMu := prev.MuAt(oid)
	mu := g.muRow(oid)
	ci := g.Idx.ViewAt(oid).CI
	//tdh:orderok CI.Pos maps each candidate value to a distinct mu slot, so iterations write disjoint state
	for v, oldPos := range oldOv.CI.Pos {
		if pos, ok := ci.Pos[v]; ok {
			mu[pos] = oldMu[oldPos]
		}
	}
	total := 0.0
	for _, p := range mu {
		total += p
	}
	if total <= 0 {
		u := 1.0 / float64(len(mu))
		for i := range mu {
			mu[i] = u
		}
		return
	}
	for i := range mu {
		mu[i] /= total
	}
}

// refreshObjectStats recomputes one object's sufficient statistics N, D
// under the current parameters (the single-object body of
// refreshSufficientStats) and re-derives μ = N/D, i.e. one local E+M step.
// The f buffer is reused across calls and returned grown.
func (m *Model) refreshObjectStats(oid int, f []float64) []float64 {
	ov := m.Idx.ViewAt(oid)
	mu := m.muRow(oid)
	if cap(f) < len(mu) {
		f = make([]float64, len(mu))
	}
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
	gamma := m.Opt.Gamma
	for i := range num {
		num[i] += gamma - 1
	}
	d := float64(len(ov.SourceClaims)+len(ov.WorkerClaims)) + float64(len(mu))*(gamma-1)
	m.dFlat[oid] = d
	if d > 0 {
		for i := range mu {
			mu[i] = num[i] / d
		}
	}
	return f
}
