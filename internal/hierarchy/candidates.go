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
// object's through the same ValueTable kernel, with the link arrays carved
// from one index-wide slab.
type CandidateIndex struct {
	// Values is the candidate set Vo in sorted order.
	Values []string
	// Links holds every Go and Do list of the set in one CSR array, nil
	// when no candidate is related to another (o ∉ OH). With n = |Vo| it is
	// ends | anc | desc: ends[j] is the end offset, into Links, of list j —
	// Anc(j) for j < n, Desc(j-n) above — and each list starts where the one
	// before it ends, the first at 2n. Read it through Anc and Desc.
	Links []int32
	// Hier reports whether any ancestor-descendant pair exists (o ∈ OH).
	Hier bool
}

// LinksLen is the length of the Links array of a candidate set of n values
// with the given number of ancestor-descendant pairs: 0 without a pair.
func LinksLen(n, pairs int) int {
	if pairs == 0 {
		return 0
	}
	return 2*n + 2*pairs
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
	ci := &CandidateIndex{Values: vals}
	vt.Link(ci, ids, pos, make([]int32, LinksLen(len(vals), vt.Pairs(ids, pos))))
	return ci
}

// Pos returns the index of candidate v in Values, by binary search: |Vo| is
// single digits on the paper's datasets and O(log |Vo|) above that.
func (ci *CandidateIndex) Pos(v string) (int, bool) {
	return slices.BinarySearch(ci.Values, v)
}

// NumValues returns |Vo|.
func (ci *CandidateIndex) NumValues() int { return len(ci.Values) }

// Anc lists the indices of the candidates that are proper ancestors of
// Values[i], excluding the root: Go(v), parent first. The list is a
// capacity-limited piece of Links, nil when the object has no related
// candidates.
func (ci *CandidateIndex) Anc(i int) []int32 {
	if ci.Links == nil {
		return nil
	}
	lo := int32(2 * len(ci.Values))
	if i > 0 {
		lo = ci.Links[i-1]
	}
	hi := ci.Links[i]
	return ci.Links[lo:hi:hi]
}

// Desc lists the indices of the candidates that are proper descendants of
// Values[i] in ascending order: Do(v). Like Anc, it is a capacity-limited
// piece of Links, nil when the object has no related candidates.
func (ci *CandidateIndex) Desc(i int) []int32 {
	if ci.Links == nil {
		return nil
	}
	n := len(ci.Values)
	lo, hi := ci.Links[n+i-1], ci.Links[n+i]
	return ci.Links[lo:hi:hi]
}

// GoSize returns |Go(v)| for the candidate at index i.
func (ci *CandidateIndex) GoSize(i int) int { return len(ci.Anc(i)) }

// IsAncestorOf reports whether candidate i is a proper ancestor of candidate j.
func (ci *CandidateIndex) IsAncestorOf(i, j int) bool {
	for _, a := range ci.Anc(j) {
		if int(a) == i {
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
	descN    []int32 // Link scratch: per-candidate descendant counts, then cursors
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

// Link fills ci.Links and ci.Hier for the candidate set ids, whose names
// ci.Values already holds. links must hold exactly
// LinksLen(len(ids), Pairs(ids, pos)) elements and becomes ci.Links; an
// empty one (no pair) leaves ci.Links nil.
func (vt *ValueTable) Link(ci *CandidateIndex, ids, pos []int32, links []int32) {
	ci.Links, ci.Hier = nil, len(links) > 0
	if len(links) == 0 {
		return
	}
	n := len(ids)
	if cap(vt.descN) < n {
		vt.descN = make([]int32, n)
	}
	descN := vt.descN[:n]
	clear(descN)
	// The Anc lists, in candidate order, each ending at ends[i].
	k := int32(2 * n)
	for i, v := range ids {
		for _, a := range vt.ancestors(v) {
			if p := pos[a]; p != 0 {
				links[k] = p - 1
				descN[p-1]++
				k++
			}
		}
		links[i] = k
	}
	// The Desc lists follow: descN becomes each list's fill cursor, and the
	// candidates are written in ascending order.
	for j, c := range descN {
		descN[j] = k
		k += c
		links[n+j] = k
	}
	ci.Links = links
	for i := range ids {
		for _, j := range ci.Anc(i) {
			links[descN[j]] = int32(i)
			descN[j]++
		}
	}
}
