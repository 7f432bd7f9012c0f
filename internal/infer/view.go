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
	// Row is object oid's confidence row — the model's own memory, read-only,
	// never written again once the model is sealed.
	Row(oid int) []float64
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
		return d.Row(id)
	}
	return nil
}

// View returns the result's Dense model when the result is a sealed view
// shaped by idx — no maps, rows read straight from the model by idx's own
// dense IDs — and nil otherwise (read row by row with ConfidenceAt then). A
// holder that reads rows across publishes, the assignment plan, keeps the
// model instead of any row of it: rows of one model are sub-slices of pages
// it shares with the models it was cloned from, so holding a few rows of
// every past model would keep every past page alive with them.
func (r *Result) View(idx *data.Index) Dense {
	if d, ok := r.Model.(Dense); ok && r.Confidence == nil && d.Index() == idx {
		return d
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
