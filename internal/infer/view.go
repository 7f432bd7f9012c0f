package infer

import "repro/internal/data"

// Dense is a result's per-object content (Result.Rows), by dense object ID
// of its own index: *core.Model (TDH), *Table (the baselines and the
// multi-truth engine) and the numeric engine's state. A published Dense is
// never written again, so concurrent readers read it without a lock and a
// live engine publishes a sealed fold's model as it is — nothing copied, a
// publish costs what the fold touched, not |O|.
type Dense interface {
	// Index is the index the object IDs are positions in.
	Index() *data.Index
	// Row is object oid's confidence row, aligned with its CI.Values — the
	// Dense's own memory, read-only.
	Row(oid int) []float64
	// TruthAt is the estimated truth of object oid, "" when it has none.
	TruthAt(oid int) string
}

// The read API below is how everything reads a Result: by dense object ID
// of the caller's index, which need not be the one Rows is shaped by — a
// fitted model lags an index extended since the fit — so an object is
// mapped through its name when the two differ.

// rowID resolves object oid of idx to its ID in Rows; ok is false when Rows
// does not know the object.
func (r *Result) rowID(idx *data.Index, oid int) (int, bool) {
	if own := r.Rows.Index(); own != idx {
		return own.ObjectID(idx.Objects[oid])
	}
	return oid, true
}

// ConfidenceAt returns the confidence row of object oid of idx, aligned
// with idx.ViewAt(oid).CI.Values; nil when the result has none.
func (r *Result) ConfidenceAt(idx *data.Index, oid int) []float64 {
	if id, ok := r.rowID(idx, oid); ok {
		return r.Rows.Row(id)
	}
	return nil
}

// TruthAt returns the estimated truth of object oid of idx, "" when the
// result has none.
func (r *Result) TruthAt(idx *data.Index, oid int) string {
	if id, ok := r.rowID(idx, oid); ok {
		return r.Rows.TruthAt(id)
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
