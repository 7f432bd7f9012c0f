package cow

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sortedEntries is the reference: sort.Slice of the live keys under the
// plan comparator (key descending, ID ascending).
func sortedEntries(keys []float64) []Entry {
	out := make([]Entry, len(keys))
	for id, k := range keys {
		out[id] = Entry{k, int32(id)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key > out[j].Key
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// rekeyNaively is the obviously correct re-rank on a flat sorted slice: a
// linear scan for the entry, a linear scan for its new place.
func rekeyNaively(sorted []Entry, c Rekey) []Entry {
	out := make([]Entry, 0, len(sorted))
	e, placed := Entry{c.New, c.ID}, false
	for _, x := range sorted {
		if x.ID == c.ID {
			continue
		}
		if !placed && (e.Key > x.Key || e.Key == x.Key && e.ID < x.ID) {
			out, placed = append(out, e), true
		}
		out = append(out, x)
	}
	if !placed {
		out = append(out, e)
	}
	return out
}

func checkRanking(t *testing.T, tag string, r Ranking, want []Entry) {
	t.Helper()
	for c, ch := range r.Chunks() {
		if len(ch) == 0 || len(ch) > maxChunk {
			t.Fatalf("%s: chunk %d holds %d entries", tag, c, len(ch))
		}
	}
	i := 0
	for _, ch := range r.Chunks() {
		for _, e := range ch {
			if i == len(want) || e != want[i] { // a plain loop: reflect.DeepEqual per step is minutes under -race
				t.Fatalf("%s: rank %d holds %v, which the sort of the %d live keys does not", tag, i, e, len(want))
			}
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("%s: the chunks hold %d entries, want %d", tag, i, len(want))
	}
}

// TestRankingIsASort: a seeded random walk of 10k re-keys — equal keys, keys
// that jump to the first and the last chunk, chunks that fill and split,
// chunks that drain and are dropped — and after every step the ranking
// iterates exactly as a sort of the live keys does (a naively maintained
// sorted slice, itself checked against sort.Slice every 64 steps, so the
// walk stays fast under -race), while every tenth earlier version still
// iterates to what it held when it was taken.
func TestRankingIsASort(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 5000} {
		rng := rand.New(rand.NewSource(int64(n)))
		keys := make([]float64, n)
		ents := make([]Entry, n)
		for id := range keys {
			keys[id] = float64(rng.Intn(n/4 + 1)) // many equal keys
			ents[id] = Entry{keys[id], int32(id)}
		}
		r := NewRanking(ents)
		want := sortedEntries(keys)
		checkRanking(t, "built", r, want)

		type version struct {
			r    Ranking
			want []Entry
		}
		var held []version
		splits, drops := 0, 0
		for step := 0; step < 10000; {
			if step%10 == 0 {
				held = append(held, version{r, want})
			}
			// One to three re-keys per version, like a publish cycle's batch;
			// now and then 64, like a backlog's. An object at most once.
			var changes []Rekey
			batch, inBatch := 1+rng.Intn(3), map[int]bool{}
			if rng.Intn(50) == 0 {
				batch = 64
			}
			for range batch {
				id := rng.Intn(n)
				var k float64
				switch rng.Intn(8) {
				case 0: // the object ranked last, to the very front: the last chunk drains
					id, k = int(want[n-1].ID), 1e9+float64(rng.Intn(3))
				case 1: // the object ranked first, back into the middle
					id, k = int(want[0].ID), float64(rng.Intn(n/4+1))
				case 2:
					k = keys[rng.Intn(n)] // somebody else's key: a tie
				case 3, 4:
					k = float64(n / 8) // pile up mid-range: that chunk splits, others drain
				case 5:
					k = keys[id] // unchanged
				default:
					k = float64(rng.Intn(n/4+1)) + rng.Float64()
				}
				if inBatch[id] {
					continue
				}
				inBatch[id] = true
				c := Rekey{ID: int32(id), Old: keys[id], New: k}
				changes, want = append(changes, c), rekeyNaively(want, c)
				keys[id] = k
				step++
			}
			was := len(r.Chunks())
			r = r.Update(changes, nil)
			switch now := len(r.Chunks()); {
			case now > was:
				splits++
			case now < was:
				drops++
			}
			checkRanking(t, "updated", r, want)
			if step%64 < len(changes) && !reflect.DeepEqual(want, sortedEntries(keys)) {
				t.Fatal("the reference itself is not sort.Slice of the live keys")
			}
			if len(held) == 50 {
				for _, h := range held {
					checkRanking(t, "held version", h.r, h.want)
				}
				held = held[:0]
			}
		}
		for _, h := range held {
			checkRanking(t, "held version", h.r, h.want)
		}
		if !reflect.DeepEqual(want, sortedEntries(keys)) {
			t.Fatal("the reference itself is not sort.Slice of the live keys")
		}
		if n == 5000 && (splits == 0 || drops == 0) {
			t.Fatalf("n=%d: the walk split %d and dropped %d chunks; it must do both", n, splits, drops)
		}
	}
}

// TestRankingUpdateInserts: Update with insertions — into an empty ranking,
// at keys that tie ranked entries (on either side of their IDs), in batches
// that overflow a full chunk, beside moves of ranked objects — iterates
// after every call exactly as NewRanking over the same live keys does, every
// chunk within maxChunk, and leaves the version it was called on as it was.
func TestRankingUpdateInserts(t *testing.T) {
	for _, tc := range []struct{ n, ranked int }{{1, 0}, {1300, 0}, {1200, 512}, {3000, 1500}} {
		rng := rand.New(rand.NewSource(int64(tc.n + tc.ranked)))
		keys := map[int32]float64{} // the live keys
		var ranked []int32
		ids := rng.Perm(tc.n)
		var ents []Entry
		for _, id := range ids[:tc.ranked] {
			k := float64(rng.Intn(tc.n/8 + 1))
			keys[int32(id)], ranked = k, append(ranked, int32(id))
			ents = append(ents, Entry{k, int32(id)})
		}
		unranked := ids[tc.ranked:]
		r := NewRanking(ents)
		live := func() []Entry {
			ents := make([]Entry, 0, len(keys))
			for id, k := range keys {
				ents = append(ents, Entry{k, id})
			}
			return NewRanking(ents).AppendTo(nil)
		}
		checkRanking(t, "built", r, live())
		splits := 0
		for step := 0; len(unranked) > 0; step++ {
			tag := fmt.Sprintf("n=%d, %d ranked at first, step %d", tc.n, tc.ranked, step)
			// The first batch into an empty ranking takes every object; later
			// ones take one to eight, and now and then 600 at one key.
			batch := 1 + rng.Intn(8)
			if len(ranked) == 0 || rng.Intn(20) == 0 {
				batch = 600
			}
			if len(ranked) == 0 && tc.n > 1 {
				batch = tc.n
			}
			pile := float64(rng.Intn(tc.n/8 + 1))
			var added []Entry
			for _, id := range unranked[:min(batch, len(unranked))] {
				var k float64
				switch {
				case batch == 600:
					k = pile // one chunk takes them all: it overflows
				case len(ranked) > 0 && rng.Intn(2) == 0:
					k = keys[ranked[rng.Intn(len(ranked))]] // a tie
				default:
					k = float64(rng.Intn(tc.n/8+1)) + rng.Float64()
				}
				added = append(added, Entry{k, int32(id)})
			}
			unranked = unranked[len(added):]
			var moves []Rekey
			moved := map[int32]bool{}
			for range rng.Intn(4) {
				if len(ranked) == 0 {
					break
				}
				id := ranked[rng.Intn(len(ranked))]
				if moved[id] {
					continue
				}
				moved[id] = true
				c := Rekey{ID: id, Old: keys[id], New: float64(rng.Intn(tc.n/8 + 1))}
				moves, keys[id] = append(moves, c), c.New
			}
			for _, e := range added {
				keys[e.ID], ranked = e.Key, append(ranked, e.ID)
			}
			before, was := r.AppendTo(nil), len(r.Chunks())
			next := r.Update(moves, added)
			checkRanking(t, tag+", the version updated", r, before)
			checkRanking(t, tag, next, live())
			if len(next.Chunks()) > was {
				splits++
			}
			r = next
		}
		if tc.n > maxChunk && splits == 0 {
			t.Fatalf("n=%d: no insertion split a chunk", tc.n)
		}
	}
}

// TestRankingUpdateRejectsAStaleKey: the caller owns the keys; one that does
// not match what the ranking holds is a bug the ranking refuses to hide.
func TestRankingUpdateRejectsAStaleKey(t *testing.T) {
	r := NewRanking([]Entry{{3, 0}, {2, 1}, {1, 2}})
	defer func() {
		if recover() == nil {
			t.Fatal("Update accepted an old key the object is not ranked by")
		}
	}()
	r.Update([]Rekey{{ID: 1, Old: 5, New: 0}}, nil)
}

// TestVecCopyOnWrite: a clone shares every page until it writes one, copies
// exactly that page once, and never writes through to the version it was
// cloned from — at sizes around the page boundary.
func TestVecCopyOnWrite(t *testing.T) {
	for _, n := range []int{0, 1, pageSize - 1, pageSize, pageSize + 1, 3*pageSize + 7} {
		flat := make([]float64, n)
		for i := range flat {
			flat[i] = float64(i)
		}
		v := Paged(flat)
		if len(v.pages) != (n+pageSize-1)/pageSize {
			t.Fatalf("n=%d: %d pages", n, len(v.pages))
		}
		if n == 0 {
			continue
		}
		c := v.Clone()
		for p := range v.pages {
			if &c.pages[p][0] != &v.pages[p][0] {
				t.Fatalf("n=%d: Clone copied page %d", n, p)
			}
		}
		last := n - 1
		c.Set(last, -1)
		shared := &c.pages[last>>pageShift][0]
		c.Set(last&^pageMask, -2) // same page: owned now, written in place
		if &c.pages[last>>pageShift][0] != shared {
			t.Fatalf("n=%d: a second write to an owned page copied it again", n)
		}
		for p := range v.pages {
			if wantShared := p != last>>pageShift; (&c.pages[p][0] == &v.pages[p][0]) != wantShared {
				t.Fatalf("n=%d: page %d shared = %v, want %v", n, p, !wantShared, wantShared)
			}
		}
		first := last &^ pageMask
		if v.At(last) != float64(last) || v.At(first) != float64(first) || c.At(first) != -2 {
			t.Fatalf("n=%d: source reads %v, %v and clone %v after the clone's writes", n, v.At(first), v.At(last), c.At(first))
		}
		if got := v.AppendTo(nil); !reflect.DeepEqual(got, flat) {
			t.Fatalf("n=%d: AppendTo differs from the flat array", n)
		}
	}
}

// TestRowsCopyOnWrite: the jagged form addresses rows through the shared
// offsets within a page, including empty rows and a page boundary inside
// the object range.
func TestRowsCopyOnWrite(t *testing.T) {
	n := 2*pageSize + 3
	off := make([]int, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + i%4 // rows of length 0..3
	}
	flat := make([]float64, off[n])
	for i := range flat {
		flat[i] = float64(i)
	}
	r := PagedRows(flat, off)
	for i := 0; i < n; i++ {
		row := r.Row(i)
		if len(row) != i%4 || cap(row) != len(row) {
			t.Fatalf("row %d: len %d cap %d", i, len(row), cap(row))
		}
		if len(row) > 0 && &row[0] != &flat[off[i]] {
			t.Fatalf("row %d is not a sub-slice of the flat array", i)
		}
	}
	c := r.Clone()
	i := pageSize + 3 // a row of length 3 in the middle page
	c.Own(i)
	c.Row(i)[0] = -1
	if r.Row(i)[0] == -1 {
		t.Fatal("a write to an owned row showed through to the source")
	}
	if &c.Row(i + 2)[0] == &r.Row(i + 2)[0] {
		t.Fatal("the neighbour in the same page was not copied with it")
	}
	if c.Row(i + 2)[0] != r.Row(i + 2)[0] {
		t.Fatal("the page copy changed a neighbour's value")
	}
	if &c.Row(1)[0] != &r.Row(1)[0] || &c.Row(n - 1)[0] != &r.Row(n - 1)[0] {
		t.Fatal("untouched pages were copied")
	}
}
