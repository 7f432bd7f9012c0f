package numeric

import (
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/data"
)

// Table is one fit's parsed numeric claims, dense on both axes. Objects are
// the caller's IDs 0..Objects()-1; providers are interned by name and
// numbered in sorted-name order, the order CRH sums its loss total in. An
// object's row lists its (provider, value) claims and a provider's row its
// (object, value) claims, both in the order they were added. A provider is
// in the table only if it made at least one claim.
type Table struct {
	names               []string // provider names by ID
	objStart, provStart []int32
	objCells, provCells []Cell
}

// Cell is one claim in a row: the ID on the other axis (the provider in an
// object's row, the object in a provider's row) and the value.
type Cell struct {
	ID int32
	V  float64
}

// Objects is the number of objects, claimed or not.
func (t *Table) Objects() int { return len(t.objStart) - 1 }

// Providers is the provider names by ID.
func (t *Table) Providers() []string { return t.names }

// Object is object oid's row.
func (t *Table) Object(oid int) []Cell { return t.objCells[t.objStart[oid]:t.objStart[oid+1]] }

// Provider is provider p's row.
func (t *Table) Provider(p int) []Cell { return t.provCells[t.provStart[p]:t.provStart[p+1]] }

// TableBuilder collects claims in order and lays them out as a Table.
type TableBuilder struct {
	objects int
	ids     map[string]int32
	names   []string
	claims  []pendingClaim
}

type pendingClaim struct {
	oid, pid int32 // pid in first-claim order
	v        float64
}

// NewTableBuilder starts a table over at least the given number of objects,
// with room for the given number of claims.
func NewTableBuilder(objects, claims int) *TableBuilder {
	return &TableBuilder{objects: objects, ids: map[string]int32{}, claims: make([]pendingClaim, 0, claims)}
}

// Add appends provider's claim of v on object oid. A value that is not a
// finite number is no claim.
func (b *TableBuilder) Add(oid int, provider string, v float64) {
	if !finite(v) {
		return
	}
	pid, ok := b.ids[provider]
	if !ok {
		pid = int32(len(b.names))
		b.ids[provider] = pid
		b.names = append(b.names, provider)
	}
	b.objects = max(b.objects, oid+1)
	b.claims = append(b.claims, pendingClaim{int32(oid), pid, v})
}

// Table renumbers the providers in sorted-name order and lays out both row
// sets, each row in the order its claims were added.
func (b *TableBuilder) Table() *Table {
	order := make([]int32, len(b.names))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int { return strings.Compare(b.names[x], b.names[y]) })
	t := &Table{names: make([]string, len(order))}
	rank := make([]int32, len(order))
	for r, pid := range order {
		rank[pid] = int32(r)
		t.names[r] = b.names[pid]
	}
	t.objStart = make([]int32, b.objects+1)
	t.provStart = make([]int32, len(order)+1)
	for _, c := range b.claims {
		t.objStart[c.oid+1]++
		t.provStart[rank[c.pid]+1]++
	}
	for i := 1; i < len(t.objStart); i++ {
		t.objStart[i] += t.objStart[i-1]
	}
	for i := 1; i < len(t.provStart); i++ {
		t.provStart[i] += t.provStart[i-1]
	}
	t.objCells = make([]Cell, len(b.claims))
	t.provCells = make([]Cell, len(b.claims))
	objNext := slices.Clone(t.objStart[:b.objects])
	provNext := slices.Clone(t.provStart[:len(order)])
	for _, c := range b.claims {
		p := rank[c.pid]
		t.objCells[objNext[c.oid]] = Cell{p, c.v}
		objNext[c.oid]++
		t.provCells[provNext[p]] = Cell{c.oid, c.v}
		provNext[p]++
	}
	return t
}

// estimate is Estimate for every estimator: e fit over a table of the
// records' parsable claims, objects numbered as they first get one. An
// object with no parsable claim is left out of the result.
func estimate(e Estimator, records []data.Record) map[string]float64 {
	b := NewTableBuilder(0, len(records))
	ids := map[string]int{}
	var objects []string
	for i := range records {
		r := &records[i]
		v, err := strconv.ParseFloat(r.Value, 64)
		if err != nil || !finite(v) {
			continue
		}
		oid, ok := ids[r.Object]
		if !ok {
			oid = len(objects)
			ids[r.Object] = oid
			objects = append(objects, r.Object)
		}
		b.Add(oid, r.Source, v)
	}
	truth, _ := e.Fit(b.Table())
	out := make(map[string]float64, len(objects))
	for oid, o := range objects {
		out[o] = truth[oid]
	}
	return out
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
