// Package infer defines the common truth-inference interface shared by TDH
// and every baseline the paper compares against (Section 5.1), plus the
// baseline implementations themselves: VOTE, ACCU, POPACCU, LFC, CRH,
// LCA (GuessLCA), ASUMS, MDC and DOCS.
package infer

import (
	"repro/internal/data"
)

// Result is the output of one truth-inference run. Its per-object content —
// each object's confidence distribution μ_o over Vo and its truth v*_o — is
// Rows, one Dense table read by dense object ID: the fitted *core.Model
// itself for TDH, a Table for the baselines. A live engine's sealed fold
// publishes the same type around the folded model (ViewOf). Readers go
// through ConfidenceAt / TruthAt / TruthMap (view.go).
type Result struct {
	// Rows is the per-object content. Never nil.
	Rows Dense
	// Truths maps object -> estimated truth: a name-keyed copy of Rows'
	// truths that every Inferencer.Infer fills once, for batch consumers
	// that score a map (eval.Evaluate). Nil on a sealed fold; nothing on the
	// serving path reads it.
	Truths map[string]string
	// SourceTrust / WorkerTrust are scalar reliabilities in [0,1]; the
	// exact semantics are algorithm-specific (documented per algorithm).
	// Valid on views too: a fold cannot change them, so they carry over.
	SourceTrust map[string]float64
	WorkerTrust map[string]float64
	// Model carries algorithm-specific state for task assigners that need
	// more than confidences: the *core.Model that is Rows for TDH (EAI), the
	// *DOCSState for DOCS (MB).
	Model any
}

// Inferencer is a truth-inference algorithm.
type Inferencer interface {
	Name() string
	Infer(idx *data.Index) *Result
}

// Table is the Dense a baseline publishes: every object's confidence row,
// aligned with its CI.Values, in one flat slice on per-object offsets, and
// the candidate position of its truth (-1: none). Whoever makes a table
// fills it before the Result that holds it is returned, and nobody writes
// it afterwards.
type Table struct {
	idx   *data.Index
	off   []int
	conf  []float64
	truth []int32
}

// NewTable returns a zeroed table shaped like idx, with no truths.
func NewTable(idx *data.Index) *Table {
	n := idx.NumObjects()
	t := &Table{idx: idx, off: make([]int, n+1), truth: make([]int32, n)}
	for oid := range idx.Views {
		t.off[oid+1] = t.off[oid] + idx.Views[oid].CI.NumValues()
		t.truth[oid] = -1
	}
	t.conf = make([]float64, t.off[n])
	return t
}

// Index, Row and TruthAt implement Dense. Row is capacity-limited, so an
// append to it cannot run into the next object's row.
func (t *Table) Index() *data.Index    { return t.idx }
func (t *Table) Row(oid int) []float64 { return t.conf[t.off[oid]:t.off[oid+1]:t.off[oid+1]] }

func (t *Table) TruthAt(oid int) string {
	if i := t.truth[oid]; i >= 0 {
		return t.idx.Views[oid].CI.Values[i]
	}
	return ""
}

// SetTruth makes candidate pos object oid's truth.
func (t *Table) SetTruth(oid, pos int) { t.truth[oid] = int32(pos) }

// truthMap is the name-keyed copy of the table's truths, one entry per
// object ("" for an object without one), as Result.Truths publishes it.
func (t *Table) truthMap() map[string]string {
	out := make(map[string]string, len(t.truth))
	for oid, o := range t.idx.Objects {
		out[o] = t.TruthAt(oid)
	}
	return out
}

// newResult allocates a Result over a fresh Table, which the inferencer
// fills by object ID.
func newResult(idx *data.Index) (*Result, *Table) {
	t := NewTable(idx)
	return &Result{Rows: t, SourceTrust: map[string]float64{}, WorkerTrust: map[string]float64{}}, t
}

// finalize makes every object's truth the argmax of its row
// (data.ObjectView.Argmax: ties toward the deeper value) and publishes the
// truths map.
func (r *Result) finalize(t *Table) {
	for oid := range t.truth {
		t.truth[oid] = int32(t.idx.Views[oid].Argmax(t.idx.DS.H, t.Row(oid)))
	}
	r.Truths = t.truthMap()
}

// provider is one claim-maker: a source or a worker. Baselines that have no
// source/worker distinction iterate providers uniformly.
type provider struct {
	name     string
	isWorker bool
}

// claimsOf lists (provider, candidate-index) claims of object oid of idx in
// deterministic order: sources then workers, each sorted by name (claim
// slices are sorted by dense ID, and IDs follow sorted-name order).
func claimsOf(idx *data.Index, oid int) []struct {
	p provider
	c int
} {
	ov := idx.Views[oid]
	out := make([]struct {
		p provider
		c int
	}, 0, len(ov.SourceClaims)+len(ov.WorkerClaims))
	for _, cl := range ov.SourceClaims {
		out = append(out, struct {
			p provider
			c int
		}{provider{idx.SourceNames[cl.Part], false}, int(cl.Val)})
	}
	for _, cl := range ov.WorkerClaims {
		out = append(out, struct {
			p provider
			c int
		}{provider{idx.WorkerNames[cl.Part], true}, int(cl.Val)})
	}
	return out
}

// setTrust stores a provider's trust into the right map.
func (r *Result) setTrust(p provider, v float64) {
	if p.isWorker {
		r.WorkerTrust[p.name] = v
	} else {
		r.SourceTrust[p.name] = v
	}
}

// normalize scales a slice into a probability distribution in place;
// all-zero slices become uniform.
func normalize(xs []float64) {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	if s <= 0 {
		u := 1.0 / float64(len(xs))
		for i := range xs {
			xs[i] = u
		}
		return
	}
	for i := range xs {
		xs[i] /= s
	}
}

const floorP = 1e-9 // probability floor shared by the iterative baselines
