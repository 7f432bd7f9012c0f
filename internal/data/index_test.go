package data

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hierarchy"
)

// candPos is the position of candidate v, which the test knows is in Vo.
func candPos(ci *hierarchy.CandidateIndex, v string) int {
	i, ok := ci.Pos(v)
	if !ok {
		panic("candidate " + v + " not in Vo")
	}
	return i
}

func TestIndexStructure(t *testing.T) {
	ds := tinyDataset(t)
	idx := NewIndex(ds)
	if idx.NumObjects() != 2 {
		t.Fatalf("NumObjects = %d", idx.NumObjects())
	}
	ov := idx.View("statue")
	if ov == nil {
		t.Fatal("missing view")
	}
	if got := ov.CI.NumValues(); got != 3 {
		t.Fatalf("|Vo| = %d, want 3", got)
	}
	if !ov.CI.Hier {
		t.Fatal("statue has NY/LibertyIsland: o ∈ OH")
	}
	if len(ov.SourceClaims) != 3 || len(ov.WorkerClaims) != 0 {
		t.Fatalf("claims: %d sources, %d workers", len(ov.SourceClaims), len(ov.WorkerClaims))
	}
	bb := idx.View("bigben")
	if len(bb.WorkerClaims) != 1 {
		t.Fatal("bigben must have emma's answer")
	}
	if bb.CI.Hier {
		t.Fatal("London/Manchester unrelated: o ∉ OH")
	}
	if !hasAnswered(idx, "emma", "bigben") || hasAnswered(idx, "emma", "statue") {
		t.Fatal("HasAnsweredAt wrong")
	}
	if hasAnswered(idx, "emma", "ghost-object") {
		t.Fatal("unknown object must report false")
	}
	if got := idx.ObjectsOfSource("unesco"); len(got) != 1 || got[0] != "statue" {
		t.Fatalf("Os(unesco) = %v", got)
	}
	if got := objectsOfWorker(idx, "emma"); len(got) != 1 || got[0] != "bigben" {
		t.Fatalf("Ow(emma) = %v", got)
	}
	if len(idx.SourceNames) != 5 || len(idx.WorkerNames) != 1 {
		t.Fatal("name lists wrong")
	}
}

func TestValueCountsAndPop(t *testing.T) {
	ds := tinyDataset(t)
	// Add a second source agreeing on NY so popularity is non-trivial.
	ds.Records = append(ds.Records, Record{"statue", "extra", "NY"})
	idx := NewIndex(ds)
	ov := idx.View("statue")
	ny := candPos(ov.CI, "NY")
	li := candPos(ov.CI, "LibertyIsland")
	la := candPos(ov.CI, "LA")
	if ov.ValueCount[ny] != 2 || ov.ValueCount[li] != 1 || ov.ValueCount[la] != 1 {
		t.Fatalf("ValueCount = %v", ov.ValueCount)
	}
	// Pop2(NY | truth=LibertyIsland): NY is the only candidate ancestor of
	// LI, claimed by 2 of the 2 generalizing sources → 1.
	if got := ov.Pop2(ny, li); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Pop2 = %v, want 1", got)
	}
	// Pop3(LA | truth=LibertyIsland): wrong values are {LA}: share 1.
	if got := ov.Pop3(la, li); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Pop3 = %v, want 1", got)
	}
	// Pop3(LA | truth=NY): wrong values are {LibertyIsland? no — LI is a
	// descendant, not an ancestor, so it counts as wrong} and {LA}.
	// counts: LI=1, LA=1 → Pop3(LA|NY) = 1/2.
	if got := ov.Pop3(la, ny); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Pop3(LA|NY) = %v, want 0.5", got)
	}
}

func TestPopFallbacks(t *testing.T) {
	// An object where nobody generalized: Pop2 falls back to uniform.
	tr := tinyTree(t)
	ds := &Dataset{
		Name: "p",
		Records: []Record{
			{"o", "s1", "LibertyIsland"},
			{"o", "s2", "NY"}, // candidate ancestor exists...
		},
		Truth: map[string]string{},
		H:     tr,
	}
	idx := NewIndex(ds)
	ov := idx.View("o")
	li := candPos(ov.CI, "LibertyIsland")
	ny := candPos(ov.CI, "NY")
	// Go(LI) = {NY} with one claiming source → Pop2(NY|LI) = 1.
	if got := ov.Pop2(ny, li); got != 1 {
		t.Fatalf("Pop2 = %v", got)
	}
	// Truth NY has no wrong candidates besides LI; Pop3(LI|NY) = 1.
	if got := ov.Pop3(li, ny); got != 1 {
		t.Fatalf("Pop3 = %v", got)
	}
}

func TestIndexWorkerExtendsCandidates(t *testing.T) {
	// A worker answer with a value no source claimed still becomes a
	// candidate (tolerant indexing).
	ds := tinyDataset(t)
	ds.Answers = append(ds.Answers, Answer{Object: "statue", Worker: "w9", Value: "London"})
	idx := NewIndex(ds)
	ov := idx.View("statue")
	if _, ok := ov.CI.Pos("London"); !ok {
		t.Fatal("worker-only value must join the candidate set")
	}
	// Its source count is zero.
	if ov.ValueCount[candPos(ov.CI, "London")] != 0 {
		t.Fatal("worker answers must not bump source ValueCount")
	}
}

// TestIndexMultiValuedAnswerClaims: a typed multi-truth answer (Values)
// contributes one worker claim per distinct claimed value, every element
// joins the candidate set, and Extend-time rebuilds agree with NewIndex.
func TestIndexMultiValuedAnswerClaims(t *testing.T) {
	ds := tinyDataset(t)
	ds.Answers = append(ds.Answers,
		Answer{Object: "statue", Worker: "w9", Value: "NY", Values: []string{"NY", "USA", "NY"}})
	idx := NewIndex(ds)
	ov := idx.View("statue")
	if len(ov.WorkerClaims) != 2 {
		t.Fatalf("worker claims = %d, want 2 (NY + USA, dup dropped)", len(ov.WorkerClaims))
	}
	claimed := map[int32]bool{}
	for _, c := range ov.WorkerClaims {
		claimed[c.Val] = true
	}
	for _, v := range []string{"NY", "USA"} {
		pos, ok := ov.CI.Pos(v)
		if !ok {
			t.Fatalf("set element %q must join the candidate set", v)
		}
		if !claimed[int32(pos)] {
			t.Fatalf("no worker claim for set element %q", v)
		}
	}
	// A single-claim lookup resolves to the canonical Value.
	w9, _ := idx.WorkerID("w9")
	if got, ok := findClaim(ov.WorkerClaims, int32(w9)); !ok || got != candPos(ov.CI, "NY") {
		t.Fatalf("w9's claim = (%d, %v), want canonical NY", got, ok)
	}
	if !hasAnswered(idx, "w9", "statue") {
		t.Fatal("HasAnsweredAt must see the set answer")
	}
}

// hasAnswered is HasAnsweredAt by name; an unknown worker or object has
// answered nothing.
func hasAnswered(idx *Index, w, o string) bool {
	wid, ok := idx.WorkerID(w)
	if !ok {
		return false
	}
	oid, ok := idx.ObjectID(o)
	return ok && idx.HasAnsweredAt(wid, oid)
}

// objectsOfWorker lists the names of the objects worker w answered (Ow),
// in WorkerObjIDs order.
func objectsOfWorker(idx *Index, w string) []string {
	wid, ok := idx.WorkerID(w)
	if !ok {
		return nil
	}
	return idx.objectNames(idx.WorkerObjIDs[wid])
}

// naivePop2/naivePop3/naiveRel re-derive the popularity and relationship
// quantities directly from the candidate index, as the seed engine did; the
// precomputed tables must agree entry for entry.
func naivePop2(ov *ObjectView, v, tr int) float64 {
	den := 0
	for _, a := range ov.CI.Anc[tr] {
		den += ov.ValueCount[a]
	}
	if den == 0 {
		if g := ov.CI.GoSize(tr); g > 0 {
			return 1.0 / float64(g)
		}
		return 0
	}
	return float64(ov.ValueCount[v]) / float64(den)
}

func naivePop3(ov *ObjectView, v, tr int) float64 {
	den, wrong := 0, 0
	isAnc := map[int]bool{}
	for _, a := range ov.CI.Anc[tr] {
		isAnc[a] = true
	}
	for i, c := range ov.ValueCount {
		if i == tr || isAnc[i] {
			continue
		}
		wrong++
		den += c
	}
	if den == 0 {
		if wrong > 0 {
			return 1.0 / float64(wrong)
		}
		return 0
	}
	return float64(ov.ValueCount[v]) / float64(den)
}

func naiveRel(ov *ObjectView, c, tr int) uint8 {
	if c == tr {
		return 1
	}
	for _, a := range ov.CI.Anc[tr] {
		if a == c {
			return 2
		}
	}
	return 3
}

func checkTablesMatchNaive(t *testing.T, ov *ObjectView) {
	t.Helper()
	nV := ov.CI.NumValues()
	for c := 0; c < nV; c++ {
		for tr := 0; tr < nV; tr++ {
			if got, want := ov.Rel(c, tr), naiveRel(ov, c, tr); got != want {
				t.Fatalf("Rel(%d,%d) = %d, want %d", c, tr, got, want)
			}
			if got, want := ov.Pop2(c, tr), naivePop2(ov, c, tr); math.Abs(got-want) > 1e-15 {
				t.Fatalf("Pop2(%d,%d) = %v, want %v", c, tr, got, want)
			}
			if got, want := ov.Pop3(c, tr), naivePop3(ov, c, tr); math.Abs(got-want) > 1e-15 {
				t.Fatalf("Pop3(%d,%d) = %v, want %v", c, tr, got, want)
			}
			if ov.IsCandAncestor(c, tr) != (naiveRel(ov, c, tr) == 2) {
				t.Fatalf("IsCandAncestor(%d,%d) disagrees with the ancestor scan", c, tr)
			}
		}
		gp := ov.CI.GoSize(c) > 0
		wp := nV-ov.CI.GoSize(c)-1 > 0
		if (ov.CaseMask(c)&1 != 0) != gp || (ov.CaseMask(c)&2 != 0) != wp {
			t.Fatalf("CaseMask(%d) = %b, want gen=%v wrong=%v", c, ov.CaseMask(c), gp, wp)
		}
	}
}

func TestPrecomputedTablesMatchNaive(t *testing.T) {
	ds := tinyDataset(t)
	ds.Records = append(ds.Records, Record{"statue", "extra", "NY"})
	idx := NewIndex(ds)
	checkTablesMatchNaive(t, idx.View("statue"))
	checkTablesMatchNaive(t, idx.View("bigben"))
}

// largeCandidateDataset is one object past maxDenseTableValues: candidates
// v0000…v0262 under a common parent P, each claimed by its own source, plus
// P itself.
func largeCandidateDataset() *Dataset {
	tr := hierarchy.New(hierarchy.Root)
	tr.MustAdd("P", hierarchy.Root)
	names := make([]string, 0, maxDenseTableValues+8)
	for i := 0; i < maxDenseTableValues+7; i++ {
		v := fmt.Sprintf("v%04d", i)
		tr.MustAdd(v, "P")
		names = append(names, v)
	}
	tr.Freeze()
	ds := &Dataset{Name: "big", Truth: map[string]string{}, H: tr}
	for i, v := range names {
		ds.Records = append(ds.Records, Record{"o", fmt.Sprintf("s%04d", i), v})
	}
	ds.Records = append(ds.Records, Record{"o", "sP", "P"})
	return ds
}

// TestLargeCandidateSetFallback drives an object past maxDenseTableValues:
// the O(|Vo|²) tables are skipped but Rel/Pop2/Pop3 must still answer
// correctly (via the ancestor bitsets) without allocating per call.
func TestLargeCandidateSetFallback(t *testing.T) {
	idx := NewIndex(largeCandidateDataset())
	ov := idx.View("o")
	if ov.RelRow(0) != nil || ov.Pop2Row(0) != nil || ov.Pop3Row(0) != nil {
		t.Fatal("dense tables must be skipped above maxDenseTableValues")
	}
	p := candPos(ov.CI, "P")
	v0 := candPos(ov.CI, "v0000")
	v1 := candPos(ov.CI, "v0001")
	if ov.Rel(p, v0) != 2 || ov.Rel(v0, v0) != 1 || ov.Rel(v1, v0) != 3 {
		t.Fatalf("Rel fallback wrong: %d %d %d", ov.Rel(p, v0), ov.Rel(v0, v0), ov.Rel(v1, v0))
	}
	if got, want := ov.Pop2(p, v0), naivePop2(ov, p, v0); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Pop2 fallback = %v, want %v", got, want)
	}
	if got, want := ov.Pop3(v1, v0), naivePop3(ov, v1, v0); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Pop3 fallback = %v, want %v", got, want)
	}
	allocs := testing.AllocsPerRun(50, func() {
		_ = ov.Pop3(v1, v0)
		_ = ov.Rel(v1, v0)
	})
	if allocs != 0 {
		t.Fatalf("fallback Pop3/Rel allocated %v per call", allocs)
	}
}

func TestClaimTransposeConsistency(t *testing.T) {
	ds := tinyDataset(t)
	idx := NewIndex(ds)
	// Every global claim ID appears exactly once in the transpose, and the
	// per-object claim ranges tile [0, NumSourceClaims).
	seen := map[int32]bool{}
	for sid, refs := range idx.SourceClaimRefs {
		if len(refs) != len(idx.SourceObjIDs[sid]) {
			t.Fatalf("source %s: %d refs vs %d objects", idx.SourceNames[sid], len(refs), len(idx.SourceObjIDs[sid]))
		}
		for _, gi := range refs {
			if seen[gi] {
				t.Fatalf("claim %d appears twice", gi)
			}
			seen[gi] = true
		}
	}
	if len(seen) != idx.NumSourceClaims() {
		t.Fatalf("transpose covers %d of %d claims", len(seen), idx.NumSourceClaims())
	}
	for oid := range idx.Views {
		lo, hi := idx.SrcClaimStart[oid], idx.SrcClaimStart[oid+1]
		if int(hi-lo) != len(idx.Views[oid].SourceClaims) {
			t.Fatalf("object %s: claim range %d..%d vs %d claims",
				idx.Objects[oid], lo, hi, len(idx.Views[oid].SourceClaims))
		}
	}
}

func TestNameIDRoundTrip(t *testing.T) {
	ds := tinyDataset(t)
	idx := NewIndex(ds)
	for i, o := range idx.Objects {
		if id, ok := idx.ObjectID(o); !ok || id != i {
			t.Fatalf("ObjectID(%s) = %d,%v", o, id, ok)
		}
		if idx.ViewAt(i) != idx.View(o) {
			t.Fatalf("ViewAt/View disagree on %s", o)
		}
	}
	for i, s := range idx.SourceNames {
		if id, ok := idx.SourceID(s); !ok || id != i {
			t.Fatalf("SourceID(%s) = %d,%v", s, id, ok)
		}
	}
	for i, w := range idx.WorkerNames {
		if id, ok := idx.WorkerID(w); !ok || id != i {
			t.Fatalf("WorkerID(%s) = %d,%v", w, id, ok)
		}
	}
	ov := idx.View("statue")
	if c, ok := idx.SourceClaim("statue", "unesco"); !ok || ov.CI.Values[c] != "NY" {
		t.Fatalf("SourceClaim(unesco) = %d,%v", c, ok)
	}
	if _, ok := idx.SourceClaim("statue", "no-such-source"); ok {
		t.Fatal("unknown source must not resolve")
	}
}
