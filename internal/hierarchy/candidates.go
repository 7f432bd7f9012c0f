package hierarchy

import "slices"

// CandidateIndex precomputes, for one object's candidate value set Vo, the
// ancestor set Go(v) and descendant set Do(v) of every candidate (Table 2 of
// the paper), plus whether the object belongs to OH — the set of objects
// whose candidates contain at least one ancestor-descendant pair.
//
// Values that do not appear in the hierarchy are treated as isolated leaves
// directly under the root: they have no candidate ancestors or descendants.
//
// NewCandidateIndex builds one on its own; data.NewIndex builds every
// object's through the same ValueTable kernel, with the lists carved from
// index-wide slabs.
type CandidateIndex struct {
	// Values is the candidate set Vo in sorted order.
	Values []string
	// Anc[i] lists indices of candidates that are proper ancestors of
	// Values[i], excluding the root: Go(v), parent first.
	Anc [][]int
	// Desc[i] lists indices of candidates that are proper descendants of
	// Values[i] in ascending order: Do(v).
	Desc [][]int
	// Hier reports whether any ancestor-descendant pair exists (o ∈ OH).
	Hier bool
}

// NewCandidateIndex builds the index for candidates over tree t. The
// candidates slice is not retained; it may contain duplicates, which are
// collapsed.
func NewCandidateIndex(t *Tree, candidates []string) *CandidateIndex {
	vals := append(make([]string, 0, len(candidates)), candidates...)
	slices.Sort(vals)
	vals = slices.Compact(vals)
	vt := NewValueTable(t, vals, func(v string) (int, bool) { return slices.BinarySearch(vals, v) })
	// The candidate set is the whole table: IDs are positions.
	ids := make([]int32, len(vals))
	pos := make([]int32, len(vals))
	for i := range ids {
		ids[i], pos[i] = int32(i), int32(i+1)
	}
	ci := &CandidateIndex{
		Values: vals,
		Anc:    make([][]int, len(vals)),
		Desc:   make([][]int, len(vals)),
	}
	vt.Link(ci, ids, pos, make([]int, 2*vt.Pairs(ids, pos)))
	return ci
}

// Pos returns the index of candidate v in Values, by binary search: |Vo| is
// single digits on the paper's datasets and O(log |Vo|) above that.
func (ci *CandidateIndex) Pos(v string) (int, bool) {
	return slices.BinarySearch(ci.Values, v)
}

// NumValues returns |Vo|.
func (ci *CandidateIndex) NumValues() int { return len(ci.Values) }

// GoSize returns |Go(v)| for the candidate at index i.
func (ci *CandidateIndex) GoSize(i int) int { return len(ci.Anc[i]) }

// IsAncestorOf reports whether candidate i is a proper ancestor of candidate j.
func (ci *CandidateIndex) IsAncestorOf(i, j int) bool {
	for _, a := range ci.Anc[j] {
		if a == i {
			return true
		}
	}
	return false
}

// ValueTable is the kernel behind every CandidateIndex: the distinct values
// of many candidate sets over one tree, each resolved against the tree once.
// A value's ID is its position in Names (string order, so sorting IDs sorts
// values), and its proper ancestors that are themselves in the table are
// kept as IDs, parent first. Candidate sets are then linked by integer
// lookups instead of one tree walk per claim.
//
// A candidate set is given as its sorted member IDs plus a position array
// pos over the whole table: pos[id] is 1 + the member's index in the set,
// and 0 for every value outside it.
type ValueTable struct {
	// Names lists the distinct values in sorted order; positions are IDs.
	Names []string

	ancStart []int32 // ancestors of id: anc[ancStart[id]:ancStart[id+1]]
	anc      []int32
	descN    []int // Link scratch: per-candidate descendant counts
}

// NewValueTable resolves the ancestors of every value of names, which must
// be sorted and distinct, over t (nil: no value has ancestors). lookup maps
// a tree node to its ID in names. names is retained as Names.
func NewValueTable(t *Tree, names []string, lookup func(string) (int, bool)) *ValueTable {
	vt := &ValueTable{Names: names, ancStart: make([]int32, len(names)+1)}
	for i, v := range names {
		if t != nil {
			for p, ok := t.parent[v]; ok && p != t.root; p, ok = t.parent[p] {
				if j, in := lookup(p); in {
					vt.anc = append(vt.anc, int32(j))
				}
			}
		}
		vt.ancStart[i+1] = int32(len(vt.anc))
	}
	return vt
}

func (vt *ValueTable) ancestors(id int32) []int32 {
	return vt.anc[vt.ancStart[id]:vt.ancStart[id+1]]
}

// Pairs returns the number of ancestor-descendant pairs within the
// candidate set ids: the size of its Anc lists, and of its Desc lists.
func (vt *ValueTable) Pairs(ids, pos []int32) int {
	n := 0
	for _, v := range ids {
		for _, a := range vt.ancestors(v) {
			if pos[a] != 0 {
				n++
			}
		}
	}
	return n
}

// Link fills ci.Anc, ci.Desc and ci.Hier for the candidate set ids, whose
// names ci.Values already holds. ci.Anc and ci.Desc must be zeroed and
// len(ids) long; ints must hold exactly 2·Pairs(ids, pos) elements and backs
// every non-empty list as a capacity-limited piece. Lists of candidates with
// no related candidate stay nil.
func (vt *ValueTable) Link(ci *CandidateIndex, ids, pos []int32, ints []int) {
	n := len(ints) / 2
	anc, desc := ints[:n:n], ints[n:]
	if cap(vt.descN) < len(ids) {
		vt.descN = make([]int, len(ids))
	}
	descN := vt.descN[:len(ids)]
	clear(descN)
	k := 0
	for i, v := range ids {
		start := k
		for _, a := range vt.ancestors(v) {
			if p := pos[a]; p != 0 {
				anc[k] = int(p - 1)
				descN[p-1]++
				k++
			}
		}
		if k > start {
			ci.Anc[i] = anc[start:k:k]
		}
	}
	ci.Hier = k > 0
	// Each Desc list gets an empty piece with exactly its capacity, and the
	// candidates are appended in ascending order.
	off := 0
	for j, c := range descN {
		if c > 0 {
			ci.Desc[j] = desc[off : off : off+c]
			off += c
		}
	}
	for i, as := range ci.Anc {
		for _, j := range as {
			ci.Desc[j] = append(ci.Desc[j], i)
		}
	}
}
