package infer

import "repro/internal/data"

// Dense is implemented by Result.Model values that can serve the result by
// dense object ID without the name-keyed maps: *core.Model (TDH) and the
// numeric engine's state. A live engine seals every fold as a Result whose
// only per-object content is such a model — Truths and Confidence stay nil,
// nothing is copied — so a publish costs what the fold touched, not |O|.
type Dense interface {
	// Index is the index the model's object IDs are positions in.
	Index() *data.Index
	// Rows is every object's confidence row by dense ID — the model's own
	// array, read-only, never written again once the model is sealed.
	Rows() [][]float64
	// TruthAt is the estimated truth of object oid, "" when it has none.
	TruthAt(oid int) string
}

// The read API below is how everything on the serving path reads a Result:
// by dense object ID of the caller's index. A result that carries the
// name-keyed maps — anything straight from Inferencer.Infer — answers from
// them (they are what the inferencer published, and a custom one may
// publish less than its model holds); a sealed fold has none and answers
// from its Dense model. Batch consumers that hold a Result straight from
// Inferencer.Infer may keep reading the maps.

// denseAt resolves object oid of idx in the result's Dense model, mapping
// through the object name when the model is shaped by another index; ok is
// false when there is no such model or it does not know the object.
func (r *Result) denseAt(idx *data.Index, oid int) (Dense, int, bool) {
	d, ok := r.Model.(Dense)
	if ok && d.Index() != idx {
		oid, ok = d.Index().ObjectID(idx.Objects[oid])
	}
	return d, oid, ok
}

// ConfidenceAt returns the confidence row of object oid of idx, aligned
// with idx.ViewAt(oid).CI.Values; nil when the result has none.
func (r *Result) ConfidenceAt(idx *data.Index, oid int) []float64 {
	if r.Confidence != nil {
		return r.Confidence[idx.Objects[oid]]
	}
	if d, id, ok := r.denseAt(idx, oid); ok {
		return d.Rows()[id]
	}
	return nil
}

// Rows returns every object's confidence row by dense ID of idx when the
// result already holds them in exactly that form — a sealed view whose model
// is shaped by idx — and nil otherwise (read row by row with ConfidenceAt
// then). A holder that keeps per-object rows across publishes, the
// assignment plan, takes the whole array: rows of one sealed model are
// sub-slices of one backing array, so keeping a few rows of every past
// model alive would keep every past backing array alive with them.
func (r *Result) Rows(idx *data.Index) [][]float64 {
	if d, ok := r.Model.(Dense); ok && r.Confidence == nil && d.Index() == idx {
		return d.Rows()
	}
	return nil
}

// TruthAt returns the estimated truth of object oid of idx, "" when the
// result has none.
func (r *Result) TruthAt(idx *data.Index, oid int) string {
	if r.Truths != nil {
		return r.Truths[idx.Objects[oid]]
	}
	if d, id, ok := r.denseAt(idx, oid); ok {
		return d.TruthAt(id)
	}
	return ""
}

// TruthMap materialises the name-keyed truths of every object of idx that
// has one, as a fresh map. O(|O|): for consumers that really want the map
// (GET /truths, quality scoring), which cache it per published state.
func (r *Result) TruthMap(idx *data.Index) map[string]string {
	out := make(map[string]string, len(idx.Objects))
	for oid, o := range idx.Objects {
		if v := r.TruthAt(idx, oid); v != "" {
			out[o] = v
		}
	}
	return out
}
