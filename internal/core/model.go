package core

import (
	"repro/internal/cow"
	"repro/internal/data"
)

// Model holds the fitted TDH parameters: per-source trustworthiness φ,
// per-worker trustworthiness ψ, and per-object confidence distributions μ,
// along with the sufficient statistics N_{o,v} and D_o needed by the
// incremental EM of the task-assignment algorithm (Section 4.2).
//
// All parameters are dense and ID-indexed: object, source and worker IDs
// are positions in Idx.Objects / Idx.SourceNames / Idx.WorkerNames. The
// per-object state is read through MuAt / NAt / DAt (μ also by name:
// MuOf); φ and ψ are plain slices.
//
// μ, N and D live in copy-on-write pages of 256 objects (internal/cow). A
// fit — Run, NewModel, Grow, Load — allocates them as three flat arrays,
// which the EM kernel addresses directly, and the pages of a fitted model
// are sub-slices of those arrays: one representation, nothing copied at the
// end of a fit. Clone derives the model a fold writes into by copying the
// three page tables only.
type Model struct {
	Idx *data.Index
	Opt Options
	// Phi[sid] = (φ_{s,1}, φ_{s,2}, φ_{s,3}).
	Phi [][3]float64
	// Psi[wid] = (ψ_{w,1}, ψ_{w,2}, ψ_{w,3}).
	Psi [][3]float64

	// Iterations counts the E/M evaluations Run performed (every step of a
	// SQUAREM cycle is one), bounded by Opt.MaxIter. FinalDelta is the max
	// confidence change of the last evaluation: the fit converged if and
	// only if FinalDelta < Opt.Tol; otherwise Run stopped at the cap.
	Iterations int
	FinalDelta float64

	// mu row oid is μ_{o,·} in the order of Idx.ViewAt(oid).CI.Values; n row
	// oid and d element oid are the numerator and denominator of the μ
	// update (Eq. 9) at the final E-step, μ = N/D, which let the incremental
	// EM fold one extra answer in O(|Vo|) (Eq. 17).
	mu, n cow.Rows
	d     cow.Vec[float64]
	// The arrays the pages of a fitted model are cut from; nil on a clone,
	// which is fold-only and has nothing to step EM on.
	muFlat, nFlat, dFlat []float64

	off []int      // off[oid] is the flat offset of object oid's candidates
	scr *emScratch // reusable E-step buffers, built lazily, dropped by Run, never cloned
}

// Clone returns the model a fold writes into. It shares everything with m:
// the index, the offsets, φ and ψ — which an incremental update never
// writes — and every page of μ, N and D; what it copies is the three page
// tables (a slice header per 256 objects). ApplyAnswerAt then copies the one
// page an answer's object lies in, once per clone, before writing it, so
// every model cloned from — the published ones concurrent task assigners
// read lock-free — keeps reading what it always held.
//
// Who may write what: a clone may be folded into (ApplyAnswerAt) and
// nothing else — it has no flat arrays, so an EM step on it panics, and
// one on m would write the shared φ/ψ and, through the flat arrays, the
// pages the clone still shares. m itself is sealed by the call:
// a later write to it of any kind would show through every clone. Grow,
// which may add participants, builds its own arrays.
func (m *Model) Clone() *Model {
	return &Model{
		Idx:        m.Idx,
		Opt:        m.Opt,
		Iterations: m.Iterations,
		FinalDelta: m.FinalDelta,
		Phi:        m.Phi,
		Psi:        m.Psi,
		mu:         m.mu.Clone(),
		n:          m.n.Clone(),
		d:          m.d.Clone(),
		off:        m.off,
	}
}

// NumObjects is the number of objects the model holds state for.
func (m *Model) NumObjects() int { return len(m.off) - 1 }

// MuAt, NAt and DAt read one object's μ row, N row and D by dense ID. The
// rows alias a page other models may share: read-only.
//
//tdh:hotpath
func (m *Model) MuAt(oid int) []float64 { return m.mu.Row(oid) }

//tdh:hotpath
func (m *Model) NAt(oid int) []float64 { return m.n.Row(oid) }

//tdh:hotpath
func (m *Model) DAt(oid int) float64 { return m.d.At(oid) }

// Index, Row and TruthAt are the dense read surface a published result
// serves from without copying the model (infer.Dense).
func (m *Model) Index() *data.Index    { return m.Idx }
func (m *Model) Row(oid int) []float64 { return m.MuAt(oid) }

// MuOf returns μ_{o,·} by object name, or nil for unknown objects.
func (m *Model) MuOf(o string) []float64 {
	if oid, ok := m.Idx.ObjectID(o); ok {
		return m.MuAt(oid)
	}
	return nil
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
	n := m.NumObjects()
	out := make(map[string]string, n)
	for oid := 0; oid < n; oid++ {
		out[m.Idx.Objects[oid]] = m.TruthAt(oid)
	}
	return out
}

// TruthAt is v*_o for one object by dense ID: the argmax of its μ row
// (data.ObjectView.Argmax: ties toward the deeper value), "" for an object
// without candidates.
func (m *Model) TruthAt(oid int) string {
	ov := m.Idx.ViewAt(oid)
	if i := ov.Argmax(m.Idx.DS.H, m.MuAt(oid)); i >= 0 {
		return ov.CI.Values[i]
	}
	return ""
}

// MaxConfidenceAt returns max_v μ_{o,v} (used by the UEAI bound).
func (m *Model) MaxConfidenceAt(oid int) float64 {
	mx := 0.0
	for _, p := range m.MuAt(oid) {
		if p > mx {
			mx = p
		}
	}
	return mx
}
