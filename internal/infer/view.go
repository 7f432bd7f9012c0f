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
// of Rows.Index(), the index every consumer serves the result with.

// ConfidenceAt returns the confidence row of object oid, aligned with
// Rows.Index().ViewAt(oid).CI.Values; nil when the result has none.
func (r *Result) ConfidenceAt(oid int) []float64 { return r.Rows.Row(oid) }

// TruthAt returns the estimated truth of object oid, "" when the result has
// none.
func (r *Result) TruthAt(oid int) string { return r.Rows.TruthAt(oid) }

// TruthMap materialises the name-keyed truths of every object that has one,
// as a fresh map. O(|O|): for consumers that really want the map (GET
// /truths, quality scoring), which cache it per published state.
func (r *Result) TruthMap() map[string]string {
	objects := r.Rows.Index().Objects
	out := make(map[string]string, len(objects))
	for oid, o := range objects {
		if v := r.Rows.TruthAt(oid); v != "" {
			out[o] = v
		}
	}
	return out
}
