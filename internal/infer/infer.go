// Package infer defines the common truth-inference interface shared by TDH
// and every baseline the paper compares against (Section 5.1), plus the
// baseline implementations themselves: VOTE, ACCU, POPACCU, LFC, CRH,
// LCA (GuessLCA), ASUMS, MDC and DOCS.
package infer

import (
	"repro/internal/data"
)

// Result is the output of one truth-inference run. Every Inferencer fills
// all of it; a live engine's sealed fold publishes the same type as a view
// with Truths and Confidence nil and the per-object content served from
// Model (view.go), so code on the serving path reads per-object content
// through ConfidenceAt / TruthAt rather than the maps.
type Result struct {
	// Truths maps object -> estimated most-specific true value.
	Truths map[string]string
	// Confidence maps object -> distribution over the candidate values, in
	// the order of idx.View(o).CI.Values. All algorithms publish it so the
	// generic task assigners (ME, QASCA) can run on top of any of them.
	Confidence map[string][]float64
	// SourceTrust / WorkerTrust are scalar reliabilities in [0,1]; the
	// exact semantics are algorithm-specific (documented per algorithm).
	// Valid on views too: a fold cannot change them, so they carry over.
	SourceTrust map[string]float64
	WorkerTrust map[string]float64
	// Model carries algorithm-specific state (e.g. *core.Model for TDH)
	// for task assigners that need more than confidences.
	Model any
}

// Inferencer is a truth-inference algorithm.
type Inferencer interface {
	Name() string
	Infer(idx *data.Index) *Result
}

// newResult allocates a Result with confidence slices shaped like the index.
func newResult(idx *data.Index) *Result {
	r := &Result{
		Truths:      make(map[string]string, len(idx.Objects)),
		Confidence:  make(map[string][]float64, len(idx.Objects)),
		SourceTrust: map[string]float64{},
		WorkerTrust: map[string]float64{},
	}
	for _, o := range idx.Objects {
		r.Confidence[o] = make([]float64, idx.View(o).CI.NumValues())
	}
	return r
}

// finalize fills Truths from Confidence by argmax with deterministic
// (deeper-then-lexicographic) tie-breaking.
func (r *Result) finalize(idx *data.Index) {
	for _, o := range idx.Objects {
		ov := idx.View(o)
		conf := r.Confidence[o]
		best, bestP, bestD := "", -1.0, -1
		for i, p := range conf {
			v := ov.CI.Values[i]
			d := 0
			if idx.DS.H != nil {
				d = idx.DS.H.Depth(v)
			}
			if p > bestP+1e-15 || (p > bestP-1e-15 && (d > bestD || (d == bestD && (best == "" || v < best)))) {
				best, bestP, bestD = v, p, d
			}
		}
		r.Truths[o] = best
	}
}

// provider is one claim-maker: a source or a worker. Baselines that have no
// source/worker distinction iterate providers uniformly.
type provider struct {
	name     string
	isWorker bool
}

// claimsOf lists (provider, candidate-index) claims of an object view in
// deterministic order: sources then workers, each sorted by name (claim
// slices are sorted by dense ID, and IDs follow sorted-name order).
func claimsOf(ov *data.ObjectView) []struct {
	p provider
	c int
} {
	out := make([]struct {
		p provider
		c int
	}, 0, len(ov.SourceClaims)+len(ov.WorkerClaims))
	for _, cl := range ov.SourceClaims {
		out = append(out, struct {
			p provider
			c int
		}{provider{ov.SourceName(cl.Part), false}, int(cl.Val)})
	}
	for _, cl := range ov.WorkerClaims {
		out = append(out, struct {
			p provider
			c int
		}{provider{ov.WorkerName(cl.Part), true}, int(cl.Val)})
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

// trustOf fetches a provider's trust with a default.
func (r *Result) trustOf(p provider, def float64) float64 {
	var m map[string]float64
	if p.isWorker {
		m = r.WorkerTrust
	} else {
		m = r.SourceTrust
	}
	if v, ok := m[p.name]; ok {
		return v
	}
	return def
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
