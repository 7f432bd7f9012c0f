// Package snaptypes mirrors the shapes of the published types (assign.Plan,
// server.Snapshot) for the snapshotmut analyzer tests.
package snaptypes

// Vec stands in for the copy-on-write containers (cow.Vec): written only
// through its Set method, never by assignment.
type Vec[T any] struct{ pages [][]T }

func (v *Vec[T]) Set(i int, x T) { v.pages[0][i] = x }
func (v *Vec[T]) At(i int) T     { return v.pages[0][i] }

// Plan is immutable after construction, like assign.Plan.
type Plan struct {
	Mu     [][]float64
	MaxMu  []float64
	Ent    []float64
	Scores Vec[float64]
	Round  int
}

// Snapshot is published behind an atomic pointer, like server.Snapshot.
type Snapshot struct {
	P     *Plan
	ByObj map[string]int
	Round int
}
