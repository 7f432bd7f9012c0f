package cow

import "slices"

// maxChunk is the most entries one chunk of a Ranking holds.
const maxChunk = 512

// Entry is one ranked object: the key it is ranked by and its dense ID.
type Entry struct {
	Key float64
	ID  int32
}

// compare is the ranking's strict total order: key descending, ID ascending
// on equal keys. IDs are unique, so no two entries compare equal.
func compare(a, b Entry) int {
	switch {
	case a.Key > b.Key:
		return -1
	case a.Key < b.Key:
		return 1
	}
	return int(a.ID) - int(b.ID)
}

// Ranking is a persistent ranking of objects under compare: a table of
// non-empty sorted chunks of at most maxChunk entries whose concatenation is
// sorted. A Ranking is immutable — Update returns a new version that shares
// every chunk it did not rebuild — so a published one is read lock-free
// however many versions were derived from it.
type Ranking struct{ chunks [][]Entry }

// NewRanking ranks entries, sorting them in place: one sort, and the chunks
// are sub-slices of entries, which the caller gives up.
func NewRanking(entries []Entry) Ranking {
	slices.SortFunc(entries, compare)
	r := Ranking{make([][]Entry, 0, (len(entries)+maxChunk-1)/maxChunk)}
	for lo := 0; lo < len(entries); lo += maxChunk {
		hi := min(lo+maxChunk, len(entries))
		r.chunks = append(r.chunks, entries[lo:hi:hi])
	}
	return r
}

// Chunks is the ranking in order: iterate the chunks, then each chunk's
// entries. Read-only.
func (r Ranking) Chunks() [][]Entry { return r.chunks }

// AppendTo appends every entry, in rank order, to dst.
func (r Ranking) AppendTo(dst []Entry) []Entry {
	for _, ch := range r.chunks {
		dst = append(dst, ch...)
	}
	return dst
}

// Rekey moves object ID from the key it is ranked by now to a new one.
type Rekey struct {
	ID       int32
	Old, New float64
}

// Update returns the ranking with every move applied and every entry of
// added inserted, each object at most once per call: a moved object must be
// ranked in r by its Old key, an added one must not be ranked in r at all.
// The changes are sorted into removals and insertions and every chunk they
// fall in is rebuilt once, by one merge, however many of them it takes (cut
// in even pieces when it outgrows maxChunk, dropped when emptied); every
// other chunk is shared with r, which is not written. The caller keeps the
// keys. Cost: O(chunks + Σ rebuilt chunk sizes + |changes| log |changes|).
func (r Ranking) Update(moves []Rekey, added []Entry) Ranking {
	edits, k := make([]Entry, 2*len(moves)+len(added)), 0
	for _, c := range moves {
		if c.Old != c.New {
			edits[k], edits[len(moves)+k] = Entry{c.Old, c.ID}, Entry{c.New, c.ID}
			k++
		}
	}
	del, ins := edits[:k], append(edits[len(moves):len(moves)+k], added...)
	if len(ins) == 0 {
		return r
	}
	slices.SortFunc(del, compare)
	slices.SortFunc(ins, compare)

	nr := Ranking{make([][]Entry, 0, len(r.chunks)+2)}
	for c, ch := range r.chunks {
		// Chunk c ranks everything after the previous chunk's last entry up
		// to its own; the last chunk also takes what ranks after everything.
		last := ch[len(ch)-1]
		nd, ni := 0, 0
		for nd < len(del) && compare(del[nd], last) <= 0 {
			nd++
		}
		for ni < len(ins) && (c == len(r.chunks)-1 || compare(ins[ni], last) <= 0) {
			ni++
		}
		if nd == 0 && ni == 0 {
			nr.chunks = append(nr.chunks, ch)
			continue
		}
		nr.chunks = appendMerged(nr.chunks, ch, del[:nd], ins[:ni])
		del, ins = del[nd:], ins[ni:]
	}
	if len(del) > 0 {
		panic(staleKey)
	}
	if len(ins) > 0 { // r ranked nothing
		nr.chunks = appendMerged(nr.chunks, nil, nil, ins)
	}
	return nr
}

const staleKey = "cow: Ranking.Update: an object is not ranked by the old key given"

// appendMerged appends to chunks the chunk old with the entries del removed
// and the entries ins merged in (all three sorted), as fresh memory: nothing
// at all when the result is empty, even pieces when it exceeds maxChunk.
// The stretches of old between two edits are copied in bulk.
func appendMerged(chunks [][]Entry, old, del, ins []Entry) [][]Entry {
	if len(del) > len(old) {
		panic(staleKey)
	}
	out := make([]Entry, 0, len(old)-len(del)+len(ins))
	for len(del) > 0 || len(ins) > 0 {
		if len(ins) == 0 || len(del) > 0 && compare(del[0], ins[0]) <= 0 {
			i, found := slices.BinarySearchFunc(old, del[0], compare)
			if !found {
				panic(staleKey)
			}
			out = append(out, old[:i]...)
			old, del = old[i+1:], del[1:]
		} else {
			i, _ := slices.BinarySearchFunc(old, ins[0], compare)
			out = append(append(out, old[:i]...), ins[0])
			old, ins = old[i:], ins[1:]
		}
	}
	out = append(out, old...)
	for pieces := (len(out) + maxChunk - 1) / maxChunk; pieces > 0; pieces-- {
		h := len(out) / pieces
		chunks = append(chunks, out[:h:h])
		out = out[h:]
	}
	return chunks
}
