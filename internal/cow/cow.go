// Package cow holds the two persistent (path-copying) structures under the
// per-cycle state of the crowd server: a paged copy-on-write vector, which
// the TDH fold model (internal/core) keeps μ, N and D in, and a chunked
// ranking (ranking.go), which the assignment plan (internal/assign) keeps
// the rankings its assigner reads in (entropy for ME; UEAI bound and
// cold-worker score for EAI).
//
// Both exist for one reason: a coordinator cycle publishes a new version of
// a campaign-sized state after touching a handful of objects, and every
// earlier version stays readable, lock-free, by whoever still holds it. A
// new version therefore shares everything with the one it was derived from
// and copies only what it writes — a page of 256 objects, a chunk of at most
// 512 ranked entries — so deriving it costs what the batch touched plus a
// table of slice headers, not |O|.
package cow

const (
	pageShift = 8
	pageSize  = 1 << pageShift // objects per page
	pageMask  = pageSize - 1
)

// table is the page table of one version of a vector. pages[p] holds the
// elements of objects [p·pageSize, (p+1)·pageSize); owned[p] says this
// version allocated page p itself and may write it in place. A nil owned
// means every page is: the vector was built over a flat array nothing else
// aliases. Versions are derived with clone only; copying a table value
// aliases the page table and is not a clone.
type table[T any] struct {
	pages [][]T
	owned []bool
}

// paginate cuts flat into pages of pageSize objects, each capped at its
// length so an append through a page cannot reach its neighbour. With off
// nil every object is one element; otherwise object i is elements
// off[i]:off[i+1].
func paginate[T any](flat []T, n int, off []int) table[T] {
	pages := make([][]T, (n+pageMask)>>pageShift)
	for p := range pages {
		lo, hi := p<<pageShift, min((p+1)<<pageShift, n)
		if off != nil {
			lo, hi = off[lo], off[hi]
		}
		pages[p] = flat[lo:hi:hi]
	}
	return table[T]{pages: pages}
}

// clone derives a version that shares every page with t and owns none.
func (t *table[T]) clone() table[T] {
	return table[T]{
		pages: append([][]T(nil), t.pages...),
		owned: make([]bool, len(t.pages)),
	}
}

// Own makes the page of object i this version's to write: the first call
// per page per version copies it, later ones find it owned. Distinct pages
// are distinct memory — their headers and their owned flags too — so
// goroutines owning and writing different pages of one version need no lock;
// goroutines that may share a page must own it under the caller's lock, and
// may then write their own objects' elements of it without one.
//
//tdh:hotpath
func (t *table[T]) Own(i int) {
	p := i >> pageShift
	if t.owned == nil || t.owned[p] {
		return
	}
	pg := make([]T, len(t.pages[p])) //tdh:allocok the copy-on-write itself: once per page per version, nothing once the page is owned
	copy(pg, t.pages[p])
	t.pages[p], t.owned[p] = pg, true
}

// Vec is a persistent vector with one element per object.
type Vec[T any] struct{ table[T] }

// Paged wraps flat — one element per object — as a Vec whose pages are
// sub-slices of it: no element is copied, and the caller may keep writing
// flat only while it holds the only version.
func Paged[T any](flat []T) Vec[T] {
	return Vec[T]{paginate(flat, len(flat), nil)}
}

// Clone derives a version that shares every page with v. Writes to the
// clone copy the page they land in first; v must not be written again.
func (v *Vec[T]) Clone() Vec[T] { return Vec[T]{v.clone()} }

// At reads object i's element.
//
//tdh:hotpath
func (v *Vec[T]) At(i int) T { return v.pages[i>>pageShift][i&pageMask] }

// Set writes object i's element, owning its page first.
//
//tdh:hotpath
func (v *Vec[T]) Set(i int, x T) {
	v.Own(i)
	v.pages[i>>pageShift][i&pageMask] = x
}

// AppendTo appends every element, in object order, to dst.
func (v *Vec[T]) AppendTo(dst []T) []T {
	for _, pg := range v.pages {
		dst = append(dst, pg...)
	}
	return dst
}

// Rows is a persistent vector of variable-length float64 rows, one row per
// object, laid out by shared offsets: object i's row is elements
// off[i]:off[i+1] of the flat array the rows were cut from.
type Rows struct {
	table[float64]
	off []int // immutable, shared by every version
}

// PagedRows wraps flat as Rows under offsets off (len(off) = objects + 1):
// pages are sub-slices of flat, nothing is copied, and the caller may keep
// writing flat only while it holds the only version.
func PagedRows(flat []float64, off []int) Rows {
	return Rows{off: off, table: paginate(flat, len(off)-1, off)}
}

// Clone derives a version that shares every page, and the offsets, with r.
// Writes to the clone copy the page they land in first; r must not be
// written again.
func (r *Rows) Clone() Rows { return Rows{off: r.off, table: r.clone()} }

// Row is object i's row. It aliases a page other versions may share:
// writable only after Own(i) on this version.
//
//tdh:hotpath
func (r *Rows) Row(i int) []float64 {
	base := r.off[i&^pageMask]
	lo, hi := r.off[i]-base, r.off[i+1]-base
	return r.pages[i>>pageShift][lo:hi:hi]
}
