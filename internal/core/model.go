package core

import (
	"sort"

	"repro/internal/data"
)

// Model holds the fitted TDH parameters: per-source trustworthiness φ,
// per-worker trustworthiness ψ, and per-object confidence distributions μ,
// along with the sufficient statistics N_{o,v} and D_o needed by the
// incremental EM of the task-assignment algorithm (Section 4.2).
//
// All parameters are dense, ID-indexed slices: object, source and worker
// IDs are positions in Idx.Objects / Idx.SourceNames / Idx.WorkerNames.
// Name-keyed accessors (MuOf, PhiOf, PsiOf, NOf, DOf) are provided for the
// server and experiment layers.
type Model struct {
	Idx *data.Index
	Opt Options
	// Mu[oid][i] is μ_{o,v} for candidate i of object oid (same order as
	// Idx.ViewAt(oid).CI.Values). The rows are contiguous sub-slices of one
	// flat backing array.
	Mu [][]float64
	// Phi[sid] = (φ_{s,1}, φ_{s,2}, φ_{s,3}).
	Phi [][3]float64
	// Psi[wid] = (ψ_{w,1}, ψ_{w,2}, ψ_{w,3}).
	Psi [][3]float64
	// N[oid][i] and D[oid] are the numerator and denominator of the μ update
	// (Eq. 9) at the final E-step; μ = N/D. They let the incremental EM
	// fold one extra answer in O(|Vo|) (Eq. 17).
	N [][]float64
	D []float64

	// Iterations counts the E/M evaluations Run performed (every step of a
	// SQUAREM cycle is one), bounded by Opt.MaxIter. FinalDelta is the max
	// confidence change of the last evaluation: the fit converged if and
	// only if FinalDelta < Opt.Tol; otherwise Run stopped at the cap.
	Iterations int
	FinalDelta float64

	muFlat   []float64  // backing array of Mu
	nFlat    []float64  // backing array of N
	off      []int      // off[oid] is the flat offset of object oid's candidates
	scr      *emScratch // reusable E-step buffers, built lazily, never cloned
	scrMaxNV int        // largest candidate set, sizes the posterior buffers
}

// newJagged builds rows over one flat backing array using offsets off.
func newJagged(off []int) (rows [][]float64, flat []float64) {
	n := len(off) - 1
	flat = make([]float64, off[n])
	rows = make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = flat[off[i]:off[i+1]:off[i+1]]
	}
	return rows, flat
}

// Clone returns the copy a fold writes into: fresh Mu, N and D over new
// backing arrays, and everything an incremental update never writes — the
// index, the row offsets and the source/worker parameters Phi and Psi —
// shared with m. The streaming server clones the sealed model before
// folding answers in with ApplyAnswerAt, so previously published models are
// never mutated and can be read lock-free by concurrent task assigners. A
// clone is for folding only: running EM steps on either side would write
// the shared φ/ψ (Grow, which may add participants, builds its own).
func (m *Model) Clone() *Model {
	c := &Model{
		Idx:        m.Idx,
		Opt:        m.Opt,
		Iterations: m.Iterations,
		FinalDelta: m.FinalDelta,
		Phi:        m.Phi,
		Psi:        m.Psi,
		D:          append([]float64(nil), m.D...),
		off:        m.off,
	}
	c.Mu, c.muFlat = newJagged(m.off)
	copy(c.muFlat, m.muFlat)
	c.N, c.nFlat = newJagged(m.off)
	copy(c.nFlat, m.nFlat)
	return c
}

// Index and Rows (with TruthAt below) are the dense read surface a published
// result serves from without copying the model (infer.Dense). Rows is Mu
// itself, not a copy; callers treat it as read-only.
func (m *Model) Index() *data.Index { return m.Idx }
func (m *Model) Rows() [][]float64  { return m.Mu }

// MuOf returns μ_{o,·} by object name, or nil for unknown objects.
func (m *Model) MuOf(o string) []float64 {
	if oid, ok := m.Idx.ObjectID(o); ok {
		return m.Mu[oid]
	}
	return nil
}

// NOf returns N_{o,·} by object name, or nil for unknown objects.
func (m *Model) NOf(o string) []float64 {
	if oid, ok := m.Idx.ObjectID(o); ok {
		return m.N[oid]
	}
	return nil
}

// DOf returns D_o by object name, or 0 for unknown objects.
func (m *Model) DOf(o string) float64 {
	if oid, ok := m.Idx.ObjectID(o); ok {
		return m.D[oid]
	}
	return 0
}

// DefaultPhi returns the prior-mean source trustworthiness, used to
// initialize EM and for sources with no claims.
func (m *Model) DefaultPhi() [3]float64 { return priorMean(m.Opt.Alpha) }

// DefaultPsi returns the prior-mean worker trustworthiness, used for
// workers that have not answered anything yet.
func (m *Model) DefaultPsi() [3]float64 { return priorMean(m.Opt.Beta) }

//tdh:hotpath
func priorMean(a [3]float64) [3]float64 {
	s := a[0] + a[1] + a[2]
	return [3]float64{a[0] / s, a[1] / s, a[2] / s}
}

// PsiOf returns ψw, falling back to the prior mean for unseen workers.
func (m *Model) PsiOf(w string) [3]float64 {
	if wid, ok := m.Idx.WorkerID(w); ok {
		return m.Psi[wid]
	}
	return m.DefaultPsi()
}

// PhiOf returns φs, falling back to the prior mean for unseen sources.
func (m *Model) PhiOf(s string) [3]float64 {
	if sid, ok := m.Idx.SourceID(s); ok {
		return m.Phi[sid]
	}
	return m.DefaultPhi()
}

// Truths extracts v*_o = argmax_v μ_{o,v} for every object (Eq. 12).
func (m *Model) Truths() map[string]string {
	out := make(map[string]string, len(m.Mu))
	for oid := range m.Mu {
		out[m.Idx.Objects[oid]] = m.TruthAt(oid)
	}
	return out
}

// TruthAt is v*_o for one object by dense ID: the argmax of its μ row. Ties
// break toward the deeper (more specific) value, then lexicographically, so
// results are deterministic.
func (m *Model) TruthAt(oid int) string {
	ov := m.Idx.ViewAt(oid)
	best, bestP, bestDepth := "", -1.0, -1
	for i, p := range m.Mu[oid] {
		v := ov.CI.Values[i]
		d := 0
		if m.Idx.DS.H != nil {
			d = m.Idx.DS.H.Depth(v)
		}
		if p > bestP+1e-15 || (p > bestP-1e-15 && (d > bestDepth || (d == bestDepth && (best == "" || v < best)))) {
			best, bestP, bestDepth = v, p, d
		}
	}
	return best
}

// Confidence returns μ_{o,·} aligned with Idx.View(o).CI.Values, or nil for
// unknown objects.
func (m *Model) Confidence(o string) []float64 { return m.MuOf(o) }

// MaxConfidence returns max_v μ_{o,v} (used by the UEAI bound).
func (m *Model) MaxConfidence(o string) float64 {
	oid, ok := m.Idx.ObjectID(o)
	if !ok {
		return 0
	}
	return m.MaxConfidenceAt(oid)
}

// MaxConfidenceAt is MaxConfidence by dense object ID.
func (m *Model) MaxConfidenceAt(oid int) float64 {
	mx := 0.0
	for _, p := range m.Mu[oid] {
		if p > mx {
			mx = p
		}
	}
	return mx
}

// SortedSourcesByReliability returns sources in non-increasing φ_{s,1}.
func (m *Model) SortedSourcesByReliability() []string {
	out := append([]string(nil), m.Idx.SourceNames...)
	sort.SliceStable(out, func(i, j int) bool {
		return m.PhiOf(out[i])[0] > m.PhiOf(out[j])[0]
	})
	return out
}
