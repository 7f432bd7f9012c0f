package hierarchy

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// candPos is the position of candidate v, which the test knows is in Vo.
func candPos(ci *CandidateIndex, v string) int {
	i, ok := ci.Pos(v)
	if !ok {
		panic("candidate " + v + " not in Vo")
	}
	return i
}

func TestCandidateIndexBasics(t *testing.T) {
	tr := buildGeo(t)
	ci := NewCandidateIndex(tr, []string{"NY", "LibertyIsland", "LA", "NY"})
	if ci.NumValues() != 3 {
		t.Fatalf("NumValues = %d, want 3 (duplicates collapsed)", ci.NumValues())
	}
	if !ci.Hier {
		t.Fatal("NY/LibertyIsland are related: Hier must be true")
	}
	li := candPos(ci, "LibertyIsland")
	ny := candPos(ci, "NY")
	la := candPos(ci, "LA")
	if ci.GoSize(li) != 1 || int(ci.Anc(li)[0]) != ny {
		t.Fatalf("Go(LibertyIsland) wrong: %v", ci.Anc(li))
	}
	if ci.GoSize(ny) != 0 || ci.GoSize(la) != 0 {
		t.Fatal("NY and LA have no candidate ancestors")
	}
	if len(ci.Desc(ny)) != 1 || int(ci.Desc(ny)[0]) != li {
		t.Fatalf("Do(NY) wrong: %v", ci.Desc(ny))
	}
	if !ci.IsAncestorOf(ny, li) || ci.IsAncestorOf(li, ny) || ci.IsAncestorOf(la, li) {
		t.Fatal("IsAncestorOf wrong")
	}
}

func TestCandidateIndexFlat(t *testing.T) {
	tr := buildGeo(t)
	ci := NewCandidateIndex(tr, []string{"LA", "London"})
	if ci.Hier {
		t.Fatal("unrelated candidates: Hier must be false")
	}
	for i := range ci.Values {
		if ci.GoSize(i) != 0 || len(ci.Desc(i)) != 0 {
			t.Fatal("flat index must have no relations")
		}
	}
}

func TestCandidateIndexOutOfTreeValues(t *testing.T) {
	tr := buildGeo(t)
	ci := NewCandidateIndex(tr, []string{"NY", "Atlantis"})
	if ci.Hier {
		t.Fatal("out-of-tree value cannot create relations")
	}
	if _, ok := ci.Pos("Atlantis"); !ok {
		t.Fatal("out-of-tree value must still be indexed")
	}
	// Nil tree: everything flat.
	ci2 := NewCandidateIndex(nil, []string{"a", "b"})
	if ci2.Hier || ci2.NumValues() != 2 {
		t.Fatal("nil-tree index must be flat")
	}
}

// TestQuickCandidateIndex cross-checks the index against the tree on random
// candidate subsets: Anc/Desc are mutually consistent and agree with
// Tree.IsAncestor, and values stay sorted and deduplicated.
func TestQuickCandidateIndex(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, int(size%40)+3)
		nodes := tr.Nodes()
		var cands []string
		for _, n := range nodes {
			if n != tr.Root() && rng.Float64() < 0.5 {
				cands = append(cands, n)
			}
		}
		if len(cands) == 0 {
			return true
		}
		ci := NewCandidateIndex(tr, cands)
		for i, v := range ci.Values {
			if i > 0 && ci.Values[i-1] >= v {
				return false // sorted, unique
			}
			if p, ok := ci.Pos(v); !ok || p != i {
				return false
			}
		}
		for i := range ci.Values {
			// Desc ascending; Anc parent first, i.e. strictly shallower.
			if !slices.IsSorted(ci.Desc(i)) {
				return false
			}
			for k := 1; k < len(ci.Anc(i)); k++ {
				if tr.Depth(ci.Values[ci.Anc(i)[k]]) >= tr.Depth(ci.Values[ci.Anc(i)[k-1]]) {
					return false
				}
			}
		}
		hier := false
		for i, vi := range ci.Values {
			for j, vj := range ci.Values {
				isAnc := tr.IsAncestor(vi, vj)
				inAnc := false
				for _, a := range ci.Anc(j) {
					if int(a) == i {
						inAnc = true
					}
				}
				inDesc := false
				for _, d := range ci.Desc(i) {
					if int(d) == j {
						inDesc = true
					}
				}
				if isAnc != inAnc || isAnc != inDesc {
					return false
				}
				if isAnc {
					hier = true
				}
			}
		}
		return hier == ci.Hier
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
