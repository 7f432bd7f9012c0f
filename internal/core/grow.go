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
// incremental EM (ApplyAnswerAt) folds answers for new objects in O(|Vo|)
// on the claim row pass, and the EAI planner's UEAI bound, ranked as
// |O|·UEAI = (1-maxμ)/(D+1), ranks fresh objects near the top of the
// scan — the cold-object path — since their D is small. Touched objects
// converge fully at the next policy-triggered refit; Grow keeps them
// consistent, not optimal.
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

	var counts []float64
	var k claimKernel
	k.prepareObjects(g, touched)
	for _, oid := range touched {
		counts = g.initObjectMu(oid, counts)
		if oid < len(m.Idx.Views) {
			g.blendPreviousMu(oid, m)
		}
		g.refreshObjectStats(oid, &k, &k.bufs[0])
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
	for oldPos, v := range oldOv.CI.Values {
		if pos, ok := ci.Pos(v); ok {
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
