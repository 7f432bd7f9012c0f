package core

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/synth"
)

// splitForGrowth carves a synthetic dataset into a base and a mutation: the
// tail of the records and answers becomes the growth batch, plus a declared
// object with seeded candidates. The base stays a valid campaign seed; the
// mutation exercises every growth shape at once (new objects, new values on
// existing objects, new sources, new workers, candidate seeds).
func splitForGrowth(ds *data.Dataset) (*data.Dataset, data.Mutation) {
	nR := len(ds.Records) * 9 / 10
	nA := len(ds.Answers) * 9 / 10
	base := ds.Clone()
	base.Records = base.Records[:nR]
	base.Answers = base.Answers[:nA]
	mut := data.Mutation{
		Records: append([]data.Record(nil), ds.Records[nR:]...),
		Answers: append([]data.Answer(nil), ds.Answers[nA:]...),
	}
	if ds.H != nil {
		// A declared object: candidates seeded from the hierarchy, no claims.
		nodes := ds.H.Nodes()
		cands := make([]string, 0, 3)
		for _, n := range nodes {
			if n != ds.H.Root() && len(cands) < 3 {
				cands = append(cands, n)
			}
		}
		mut.Candidates = map[string][]string{"declared-object": cands}
	}
	return base, mut
}

// applyMutation mirrors the server pipeline: clone-and-append the mutation
// so the pre-mutation dataset stays untouched.
func applyMutation(ds *data.Dataset, mu data.Mutation) *data.Dataset {
	out := ds.Clone()
	out.Records = append(out.Records, mu.Records...)
	out.Answers = append(out.Answers, mu.Answers...)
	if len(mu.Candidates) > 0 && out.Candidates == nil {
		out.Candidates = map[string][]string{}
	}
	for o, vals := range mu.Candidates {
		out.Candidates[o] = append(out.Candidates[o], vals...)
	}
	return out
}

// TestGrowThenInferMatchesScratch is the dense-ID acceptance pin: extending
// an index and running the full EM on it must agree with building the index
// from scratch on the same extended dataset, within 1e-9, for every
// parameter — even though dense IDs (and hence summation orders) differ
// between the two builds.
func TestGrowThenInferMatchesScratch(t *testing.T) {
	for name, ds := range map[string]*data.Dataset{
		"birthplaces": synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 11, Scale: 0.03}),
		"heritages":   synth.Heritages(synth.HeritagesConfig{Seed: 11, Scale: 0.1}),
	} {
		t.Run(name, func(t *testing.T) {
			base, mut := splitForGrowth(ds)
			baseIdx := data.NewIndex(base)
			full := applyMutation(base, mut)
			grown, touched := baseIdx.Extend(full, mut)
			scratch := data.NewIndex(full)

			// Fixed iteration count: a convergence stop could trip one run an
			// iteration earlier than the other on float dust.
			opt := DefaultOptions()
			opt.MaxIter = 30
			opt.Tol = -1
			mg := Run(grown, opt)
			ms := Run(scratch, opt)

			const tol = 1e-9
			for oid, o := range scratch.Objects {
				gid, ok := grown.ObjectID(o)
				if !ok {
					t.Fatalf("grown index missing %q", o)
				}
				gv, sv := grown.ViewAt(gid), scratch.ViewAt(oid)
				if gv.CI.NumValues() != sv.CI.NumValues() {
					t.Fatalf("%q candidate counts differ", o)
				}
				for i := range ms.MuAt(oid) {
					if d := math.Abs(mg.MuAt(gid)[i] - ms.MuAt(oid)[i]); d > tol {
						t.Fatalf("mu differs on %s[%s]: grown=%v scratch=%v",
							o, sv.CI.Values[i], mg.MuAt(gid)[i], ms.MuAt(oid)[i])
					}
				}
				if d := math.Abs(mg.DAt(gid) - ms.DAt(oid)); d > tol {
					t.Fatalf("D differs on %s: grown=%v scratch=%v", o, mg.DAt(gid), ms.DAt(oid))
				}
			}
			for sid, s := range scratch.SourceNames {
				gid, ok := grown.SourceID(s)
				if !ok {
					t.Fatalf("grown index missing source %q", s)
				}
				for i := 0; i < 3; i++ {
					if d := math.Abs(mg.Phi[gid][i] - ms.Phi[sid][i]); d > tol {
						t.Fatalf("phi differs on %s: grown=%v scratch=%v", s, mg.Phi[gid], ms.Phi[sid])
					}
				}
			}
			for wid, w := range scratch.WorkerNames {
				gid, ok := grown.WorkerID(w)
				if !ok {
					t.Fatalf("grown index missing worker %q", w)
				}
				for i := 0; i < 3; i++ {
					if d := math.Abs(mg.Psi[gid][i] - ms.Psi[wid][i]); d > tol {
						t.Fatalf("psi differs on %s: grown=%v scratch=%v", w, mg.Psi[gid], ms.Psi[wid])
					}
				}
			}

			// Truths must agree exactly by name.
			gt, st := mg.Truths(), ms.Truths()
			for o, v := range st {
				if gt[o] != v {
					t.Fatalf("truth differs on %s: grown=%q scratch=%q", o, gt[o], v)
				}
			}

			// Dense-ID invariant: every base object kept its ID.
			for id, o := range baseIdx.Objects {
				if gid, ok := grown.ObjectID(o); !ok || gid != id {
					t.Fatalf("object %q moved: %d -> %d", o, id, gid)
				}
			}
			if len(touched) == 0 {
				t.Fatal("expected touched objects")
			}
		})
	}
}

// TestGrowTransfersFittedState checks Grow's parameter carry-over: untouched
// objects keep μ/N/D verbatim, stable participants keep φ/ψ, new
// participants start at the prior mean, and touched objects come out with
// consistent sufficient statistics (μ = N/D) the incremental EM can extend.
func TestGrowTransfersFittedState(t *testing.T) {
	ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 5, Scale: 0.02})
	base, mut := splitForGrowth(ds)
	baseIdx := data.NewIndex(base)
	m := Run(baseIdx, DefaultOptions())

	full := applyMutation(base, mut)
	grown, touched := baseIdx.Extend(full, mut)
	g := m.Grow(grown, touched)

	if g.Idx != grown {
		t.Fatal("grown model must adopt the extended index")
	}
	touchedSet := map[int]bool{}
	for _, oid := range touched {
		touchedSet[oid] = true
	}
	for oid := range baseIdx.Views {
		if touchedSet[oid] {
			continue
		}
		for i := range m.MuAt(oid) {
			if g.MuAt(oid)[i] != m.MuAt(oid)[i] || g.NAt(oid)[i] != m.NAt(oid)[i] {
				t.Fatalf("untouched object %d row changed", oid)
			}
		}
		if g.DAt(oid) != m.DAt(oid) {
			t.Fatalf("untouched object %d D changed", oid)
		}
	}
	for sid := range m.Phi {
		if g.Phi[sid] != m.Phi[sid] {
			t.Fatalf("source %d phi changed", sid)
		}
	}
	for wid := range m.Psi {
		if g.Psi[wid] != m.Psi[wid] {
			t.Fatalf("worker %d psi changed", wid)
		}
	}
	prior := g.DefaultPsi()
	for wid := len(m.Psi); wid < len(g.Psi); wid++ {
		if g.Psi[wid] != prior {
			t.Fatalf("new worker %d psi = %v, want prior %v", wid, g.Psi[wid], prior)
		}
	}

	// Touched rows are a consistent (μ, N, D) triple with μ normalized.
	for _, oid := range touched {
		mu, n, d := g.MuAt(oid), g.NAt(oid), g.DAt(oid)
		if len(mu) != g.Idx.ViewAt(oid).CI.NumValues() {
			t.Fatalf("object %d row mis-sized", oid)
		}
		total := 0.0
		for i := range mu {
			total += mu[i]
			if d > 0 && math.Abs(mu[i]-n[i]/d) > 1e-12 {
				t.Fatalf("object %d: mu[%d]=%v != N/D=%v", oid, i, mu[i], n[i]/d)
			}
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("object %d mu sums to %v", oid, total)
		}
	}

	// The old model is untouched and still serves its own index.
	if m.Idx != baseIdx || m.NumObjects() != baseIdx.NumObjects() {
		t.Fatal("Grow mutated the source model")
	}

	// Incremental EM picks new objects up: one answer moves μ and D.
	newOid := grown.NumObjects() - 1
	before := g.DAt(newOid)
	g2 := g.Clone()
	g2.ApplyAnswerAt(newOid, -1, 0) // a brand-new worker
	if g2.DAt(newOid) != before+1 {
		t.Fatalf("ApplyAnswerAt on grown object: D %v -> %v", before, g2.DAt(newOid))
	}
	if g2.MaxConfidenceAt(newOid) <= 0 {
		t.Fatal("grown object has zero confidence after an answer")
	}
}
