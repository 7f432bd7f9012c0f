package data

import (
	"reflect"
	"testing"
)

// applyMutation appends a mutation to a dataset the way the server pipeline
// does before calling Extend.
func applyMutation(ds *Dataset, mu Mutation) *Dataset {
	out := ds.Clone()
	out.Records = append(out.Records, mu.Records...)
	out.Answers = append(out.Answers, mu.Answers...)
	if len(mu.Candidates) > 0 && out.Candidates == nil {
		out.Candidates = map[string][]string{}
	}
	for o, vals := range mu.Candidates {
		out.Candidates[o] = append(out.Candidates[o], vals...)
	}
	return out
}

func growthMutation() Mutation {
	return Mutation{
		Records: []Record{
			// New object from a brand-new source.
			{"tower", "newsource", "London"},
			// Second claim on the new object from an existing source.
			{"tower", "wiki", "UK"},
			// New value on an existing object: statue's candidate set grows.
			{"statue", "newsource", "USA"},
		},
		Answers: []Answer{
			// New worker answering the new object.
			{Object: "tower", Worker: "newworker", Value: "London"},
			// Existing worker answering an existing object.
			{Object: "statue", Worker: "emma", Value: "NY"},
		},
		Candidates: map[string][]string{
			// Declared object with seeded candidates, no claims yet.
			"palace": {"London", "Manchester"},
		},
	}
}

func TestExtendKeepsDenseIDsStable(t *testing.T) {
	base := tinyDataset(t)
	idx := NewIndex(base)
	mu := growthMutation()
	ds2 := applyMutation(base, mu)
	next, touched := idx.Extend(ds2, mu)

	for name, id := range idx.objectID {
		if got, ok := next.ObjectID(name); !ok || got != id {
			t.Fatalf("object %q moved: %d -> %d (ok=%v)", name, id, got, ok)
		}
	}
	for name, id := range idx.sourceID {
		if got, ok := next.SourceID(name); !ok || got != id {
			t.Fatalf("source %q moved: %d -> %d (ok=%v)", name, id, got, ok)
		}
	}
	for name, id := range idx.workerID {
		if got, ok := next.WorkerID(name); !ok || got != id {
			t.Fatalf("worker %q moved: %d -> %d (ok=%v)", name, id, got, ok)
		}
	}
	// New names intern after the existing ones.
	for _, name := range []string{"tower", "palace"} {
		id, ok := next.ObjectID(name)
		if !ok || id < idx.NumObjects() {
			t.Fatalf("new object %q: id %d (ok=%v), want >= %d", name, id, ok, idx.NumObjects())
		}
	}
	if id, ok := next.SourceID("newsource"); !ok || id != idx.NumSources() {
		t.Fatalf("newsource id = %d (ok=%v)", id, ok)
	}
	if id, ok := next.WorkerID("newworker"); !ok || id != idx.NumWorkers() {
		t.Fatalf("newworker id = %d (ok=%v)", id, ok)
	}

	// Touched = statue (new value + new answer) plus the two new objects,
	// ascending; bigben untouched and its view shared, not rebuilt.
	statueID, _ := next.ObjectID("statue")
	towerID, _ := next.ObjectID("tower")
	palaceID, _ := next.ObjectID("palace")
	want := []int{statueID, towerID, palaceID}
	if want[1] > want[2] {
		want[1], want[2] = want[2], want[1]
	}
	if !reflect.DeepEqual(touched, want) {
		t.Fatalf("touched = %v, want %v", touched, want)
	}
	bigbenID, _ := idx.ObjectID("bigben")
	if next.ViewAt(bigbenID) != idx.ViewAt(bigbenID) {
		t.Fatal("untouched view was rebuilt instead of shared")
	}

	// The old index is untouched: statue still has its original candidates.
	if idx.View("statue").CI.NumValues() != 3 {
		t.Fatalf("old statue view mutated: |Vo| = %d", idx.View("statue").CI.NumValues())
	}
	if idx.View("tower") != nil || idx.View("palace") != nil {
		t.Fatal("old index gained objects")
	}
}

// TestExtendMatchesScratch pins Extend's output structurally against a
// from-scratch NewIndex over the same extended dataset: identical candidate
// sets, claims, value counts and participant structures per object NAME
// (dense IDs may differ — Extend appends, NewIndex sorts).
func TestExtendMatchesScratch(t *testing.T) {
	base := tinyDataset(t)
	idx := NewIndex(base)
	mu := growthMutation()
	ds2 := applyMutation(base, mu)
	grown, _ := idx.Extend(ds2, mu)
	scratch := NewIndex(ds2)

	if grown.NumObjects() != scratch.NumObjects() ||
		grown.NumSources() != scratch.NumSources() ||
		grown.NumWorkers() != scratch.NumWorkers() {
		t.Fatalf("sizes differ: grown (%d,%d,%d) scratch (%d,%d,%d)",
			grown.NumObjects(), grown.NumSources(), grown.NumWorkers(),
			scratch.NumObjects(), scratch.NumSources(), scratch.NumWorkers())
	}
	if grown.NumSourceClaims() != scratch.NumSourceClaims() ||
		grown.NumWorkerClaims() != scratch.NumWorkerClaims() {
		t.Fatalf("claim totals differ: grown (%d,%d) scratch (%d,%d)",
			grown.NumSourceClaims(), grown.NumWorkerClaims(),
			scratch.NumSourceClaims(), scratch.NumWorkerClaims())
	}
	for _, o := range scratch.Objects {
		checkSameView(t, grown, scratch, o)
	}
	checkCarved(t, grown)
	checkCarved(t, scratch)
	// Participant object lists agree by name.
	for _, s := range scratch.SourceNames {
		if got, want := grown.ObjectsOfSource(s), scratch.ObjectsOfSource(s); !sameStringSet(got, want) {
			t.Fatalf("Os(%s): grown %v scratch %v", s, got, want)
		}
	}
	for _, w := range scratch.WorkerNames {
		if got, want := objectsOfWorker(grown, w), objectsOfWorker(scratch, w); !sameStringSet(got, want) {
			t.Fatalf("Ow(%s): grown %v scratch %v", w, got, want)
		}
	}
}

// checkSameView compares object o's views in two indexes by name:
// candidate set and hierarchy relations, value counts, claims by participant
// name, and every precomputed table. Candidate positions agree because
// Values is sorted in both, so the tables compare entry for entry.
func checkSameView(t testing.TB, grown, scratch *Index, o string) {
	t.Helper()
	g, s := grown.View(o), scratch.View(o)
	if g == nil || s == nil {
		t.Fatalf("%q: grown view %v, scratch view %v", o, g != nil, s != nil)
	}
	if g.Object != o || s.Object != o {
		t.Fatalf("views of %q and %q under %q", g.Object, s.Object, o)
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"candidates", g.CI.Values, s.CI.Values},
		{"links", g.CI.Links, s.CI.Links},
		{"Hier", g.CI.Hier, s.CI.Hier},
		{"value counts", g.ValueCount, s.ValueCount},
		{"source claims", claimSet(grown, g, true), claimSet(scratch, s, true)},
		{"worker claims", claimSet(grown, g, false), claimSet(scratch, s, false)},
		{"case masks", g.CaseMasks(), s.CaseMasks()},
		{"1/|Go|", g.InvGoSizes(), s.InvGoSizes()},
		{"1/|rest|", g.InvRestSizes(), s.InvRestSizes()},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%q %s: grown %v scratch %v", o, c.what, c.got, c.want)
		}
	}
	nV := s.CI.NumValues()
	if g.NumValues() != nV || s.NumValues() != nV || g.Hier() != s.CI.Hier || s.Hier() != s.CI.Hier {
		t.Fatalf("%q: |Vo| %d/%d or Hier %v/%v read off the views disagree with the candidate index",
			o, g.NumValues(), s.NumValues(), g.Hier(), s.Hier())
	}
	for c := 0; c < nV; c++ {
		if !reflect.DeepEqual(g.CI.Anc(c), s.CI.Anc(c)) || !reflect.DeepEqual(g.CI.Desc(c), s.CI.Desc(c)) {
			t.Fatalf("%q: Anc/Desc of candidate %d: grown %v/%v scratch %v/%v",
				o, c, g.CI.Anc(c), g.CI.Desc(c), s.CI.Anc(c), s.CI.Desc(c))
		}
		if !reflect.DeepEqual(g.RelRow(c), s.RelRow(c)) ||
			!reflect.DeepEqual(g.Pop2Row(c), s.Pop2Row(c)) ||
			!reflect.DeepEqual(g.Pop3Row(c), s.Pop3Row(c)) {
			t.Fatalf("%q: Rel/Pop2/Pop3 rows of candidate %d differ", o, c)
		}
		for tr := 0; tr < nV; tr++ {
			if g.IsCandAncestor(c, tr) != s.IsCandAncestor(c, tr) {
				t.Fatalf("%q: IsCandAncestor(%d, %d) differs", o, c, tr)
			}
		}
	}
}

// checkCarved asserts that every per-object slice of idx is a
// capacity-limited piece (cap == len), so no append through one view can
// write into a neighbour's slab region.
func checkCarved(t testing.TB, idx *Index) {
	t.Helper()
	for _, ov := range idx.Views {
		pieces := []struct {
			what string
			ok   bool
		}{
			{"Values", carved(ov.CI.Values)},
			{"Links", carved(ov.CI.Links)},
			{"ValueCount", carved(ov.ValueCount)},
			{"SourceClaims", carved(ov.SourceClaims)},
			{"WorkerClaims", carved(ov.WorkerClaims)},
			{"b", carved(ov.b)},
			{"f", carved(ov.f)},
			{"w", carved(ov.w)},
		}
		for _, p := range pieces {
			if !p.ok {
				t.Fatalf("%q %s: cap != len", ov.Object, p.what)
			}
		}
		for c := range ov.CI.Values {
			if !carved(ov.CI.Anc(c)) || !carved(ov.CI.Desc(c)) {
				t.Fatalf("%q Anc/Desc[%d]: cap != len", ov.Object, c)
			}
		}
	}
}

func carved[T any](s []T) bool { return len(s) == cap(s) }

// claimSet renders the claims of idx's view ov as participantName->value
// (candidate value ordering is sorted in both indices, so names are
// comparable).
func claimSet(idx *Index, ov *ObjectView, sources bool) map[string]string {
	out := map[string]string{}
	if sources {
		for _, cl := range ov.SourceClaims {
			out[idx.SourceNames[cl.Part]] = ov.CI.Values[cl.Val]
		}
	} else {
		for _, cl := range ov.WorkerClaims {
			out[idx.WorkerNames[cl.Part]] = ov.CI.Values[cl.Val]
		}
	}
	return out
}

func sameStringSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		if !set[s] {
			return false
		}
	}
	return true
}

func TestExtendDedupsAndMergesIdempotently(t *testing.T) {
	base := tinyDataset(t)
	idx := NewIndex(base)
	mu := Mutation{
		Records: []Record{
			// Duplicate of an existing (object, source) claim: dropped.
			{"statue", "unesco", "LA"},
			// The same new claim twice: first wins.
			{"tower", "wiki", "London"},
			{"tower", "wiki", "Manchester"},
		},
		Candidates: map[string][]string{
			// Duplicate candidate seeds collapse.
			"palace": {"London", "London"},
		},
	}
	ds2 := applyMutation(base, mu)
	next, _ := idx.Extend(ds2, mu)

	st := next.View("statue")
	if v, ok := next.SourceClaim("statue", "unesco"); !ok || st.CI.Values[v] != "NY" {
		t.Fatalf("duplicate claim overwrote original: %v %v", v, ok)
	}
	tw := next.View("tower")
	if v, ok := next.SourceClaim("tower", "wiki"); !ok || tw.CI.Values[v] != "London" {
		t.Fatalf("first-wins dedup broken: %v %v", v, ok)
	}
	if got := next.View("palace").CI.NumValues(); got != 1 {
		t.Fatalf("palace |Vo| = %d, want 1", got)
	}
}

func TestExtendEmptyMutationReturnsSameIndex(t *testing.T) {
	base := tinyDataset(t)
	idx := NewIndex(base)
	next, touched := idx.Extend(base, Mutation{})
	if next != idx || touched != nil {
		t.Fatalf("empty mutation: next=%p idx=%p touched=%v", next, idx, touched)
	}
}

// TestExtendChain grows an index twice and checks the second extension sees
// the first one's state (values accumulate across extensions).
func TestExtendChain(t *testing.T) {
	base := tinyDataset(t)
	idx := NewIndex(base)
	mu1 := Mutation{Records: []Record{{"tower", "wiki", "London"}}}
	ds1 := applyMutation(base, mu1)
	idx1, _ := idx.Extend(ds1, mu1)
	mu2 := Mutation{Records: []Record{{"tower", "unesco", "Manchester"}}}
	ds2 := applyMutation(ds1, mu2)
	idx2b, _ := idx1.Extend(ds2, mu2)
	tw := idx2b.View("tower")
	if tw.CI.NumValues() != 2 {
		t.Fatalf("tower |Vo| = %d, want 2", tw.CI.NumValues())
	}
	if len(tw.SourceClaims) != 2 {
		t.Fatalf("tower claims = %d, want 2", len(tw.SourceClaims))
	}
	id1, _ := idx1.ObjectID("tower")
	id2, _ := idx2b.ObjectID("tower")
	if id1 != id2 {
		t.Fatalf("tower moved between extensions: %d -> %d", id1, id2)
	}
}
