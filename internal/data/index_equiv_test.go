package data_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/synth"
)

// withAnswers returns a copy of ds with n worker answers drawn from a pool
// of `workers` simulated workers over random objects. Repeated
// (object, worker) pairs are kept: the index must drop all but the first.
func withAnswers(ds *data.Dataset, n, workers int, seed int64) *data.Dataset {
	out := ds.Clone()
	idx := data.NewIndex(ds)
	pool := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: seed, Count: workers})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		w := pool[rng.Intn(len(pool))]
		ov := idx.ViewAt(rng.Intn(idx.NumObjects()))
		out.Answers = append(out.Answers, data.Answer{Object: ov.Object, Worker: w.Name, Value: w.Answer(rng, ds, ov)})
	}
	return out
}

// withEdgeCases returns a copy of ds carrying every input shape the index
// treats specially: multi-valued answers with an out-of-tree extra and a
// repeated value (every 97th answer), candidate seeds on an existing object,
// on a new object and an empty seed list, a duplicate (object, source)
// record with a different value, and an out-of-tree record value.
func withEdgeCases(ds *data.Dataset) *data.Dataset {
	out := ds.Clone()
	for i := 0; i < len(out.Answers); i += 97 {
		a := &out.Answers[i]
		a.Values = []string{a.Value, out.Records[i%len(out.Records)].Value, "nowhere:" + a.Value, a.Value}
	}
	first := out.Records[0]
	other := out.Records[len(out.Records)/2].Value
	out.Records = append(out.Records,
		data.Record{Object: first.Object, Source: first.Source, Value: other},
		data.Record{Object: first.Object, Source: "edge-src", Value: "nowhere"})
	out.Candidates = map[string][]string{
		first.Object:   {other, "seed-only"},
		"seeded-new":   {other, first.Value, other},
		"seeded-empty": nil,
	}
	return out
}

func withoutHierarchy(ds *data.Dataset) *data.Dataset {
	out := ds.Clone()
	out.H = nil
	return out
}

// TestNewIndexMatchesReference pins the builder to the string-keyed
// reference build: the same Index, field for field, on every fixture.
func TestNewIndexMatchesReference(t *testing.T) {
	bp := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 5, Scale: 0.3})
	her := synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.5})
	bpCrowd := withEdgeCases(withAnswers(bp, 3000, 30, 5))
	herCrowd := withEdgeCases(withAnswers(her, 3000, 30, 6))
	for _, c := range []struct {
		name string
		ds   *data.Dataset
	}{
		{"birthplaces", bp},
		{"birthplaces+answers+edges", bpCrowd},
		{"heritages", her},
		{"heritages+answers+edges", herCrowd},
		{"no-hierarchy", withoutHierarchy(herCrowd)},
		{"large-candidate-set", data.LargeCandidateDataset()},
		{"empty", &data.Dataset{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, want := data.NewIndex(c.ds), data.RefNewIndex(c.ds)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("NewIndex differs from the reference build")
			}
			data.CheckCarved(t, got)
		})
	}
}

// TestExtendChainMatchesScratch grows a BirthPlaces index through three
// mixed mutations and then 24 answer-only steps shaped like crowd.RunLoop's
// rounds: 10 workers answer 5 objects each, and from step 12 on an eleventh
// worker, whose name sorts before every earlier one, answers too, so its
// appended ID differs from the one a from-scratch build gives it. At every
// step each view equals a from-scratch build's by name, every view the step
// did not touch is the parent's own (the same pointer) and every touched one
// is fresh, and the parent index still equals the previous step's
// from-scratch build.
func TestExtendChainMatchesScratch(t *testing.T) {
	base := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 3, Scale: 0.1})
	leaves := base.H.Leaves()
	r0, r1 := base.Records[0], base.Records[len(base.Records)/2]
	muts := []data.Mutation{
		{ // a new object claimed by a new and an existing source
			Candidates: map[string][]string{"grown:1": {leaves[0], leaves[1]}},
			Records: []data.Record{
				{Object: "grown:1", Source: "grown-src", Value: leaves[0]},
				{Object: "grown:1", Source: r0.Source, Value: leaves[1]},
			},
		},
		{ // a new candidate on an existing object; answers from a new worker
			Records: []data.Record{{Object: r1.Object, Source: "grown-src", Value: leaves[2]}},
			Answers: []data.Answer{
				{Object: r1.Object, Worker: "w-new", Value: r1.Value},
				{Object: "grown:1", Worker: "w-new", Value: leaves[1]},
			},
		},
		{ // a multi-valued answer, a seed, a duplicate record and answer
			Records: []data.Record{{Object: r0.Object, Source: r0.Source, Value: leaves[3]}},
			Answers: []data.Answer{
				{Object: r0.Object, Worker: "w-multi", Value: r0.Value, Values: []string{r0.Value, leaves[4], r0.Value}},
				{Object: r1.Object, Worker: "w-new", Value: leaves[2]},
			},
			Candidates: map[string][]string{r1.Object: {leaves[5]}},
		},
	}
	const rounds, lateFrom = 24, 12
	pool := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: 3, Count: 11, Pi: 0.75})
	pool[10].Name = "w-late"
	rng := rand.New(rand.NewSource(3))

	ds, idx := base, data.NewIndex(base)
	prevScratch := idx
	for k := 0; k < len(muts)+rounds; k++ {
		var mu data.Mutation
		if k < len(muts) {
			mu = muts[k]
		} else {
			workers := pool[:10]
			if k-len(muts) >= lateFrom {
				workers = pool
			}
			mu = data.Mutation{Answers: loopRound(rng, ds, idx, workers, 5)}
		}
		ds = data.ApplyMutation(ds, mu)
		next, touched := idx.Extend(ds, mu)
		scratch := data.NewIndex(ds)
		checkSameIndex(t, next, scratch)
		for _, w := range scratch.WorkerNames {
			if got, want := objectsOfWorker(next, w), objectsOfWorker(scratch, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Ow(%s) grown %v scratch %v", k, w, got, want)
			}
		}
		data.CheckCarved(t, next)

		isTouched := make(map[int]bool, len(touched))
		for _, oid := range touched {
			isTouched[oid] = true
		}
		for oid, ov := range idx.Views {
			if shared := next.Views[oid] == ov; shared == isTouched[oid] {
				t.Fatalf("step %d: object %q touched %v but view shared %v", k, ov.Object, isTouched[oid], shared)
			}
		}
		checkSameIndex(t, idx, prevScratch)
		idx, prevScratch = next, scratch
	}
	if id, _ := idx.WorkerID("w-late"); id != idx.NumWorkers()-1 {
		t.Fatalf("late worker has ID %d, want the last, %d", id, idx.NumWorkers()-1)
	}
	if id, _ := prevScratch.WorkerID("w-late"); id != 0 {
		t.Fatalf("late worker sorts to ID %d in a from-scratch build, want 0", id)
	}
}

// objectsOfWorker lists the names of the objects worker w answered (Ow),
// in WorkerObjIDs order.
func objectsOfWorker(idx *data.Index, w string) []string {
	wid, ok := idx.WorkerID(w)
	if !ok {
		return nil
	}
	var out []string
	for _, oid := range idx.WorkerObjIDs[wid] {
		out = append(out, idx.Objects[oid])
	}
	return out
}

// loopRound draws one crowd round: each worker answers k random objects it
// has not answered yet, as a simulated worker of the pool would.
func loopRound(rng *rand.Rand, ds *data.Dataset, idx *data.Index, workers []synth.Worker, k int) []data.Answer {
	var out []data.Answer
	for _, w := range workers {
		wid, ok := idx.WorkerID(w.Name)
		if !ok {
			wid = -1
		}
		for n := 0; n < k; {
			oid := rng.Intn(idx.NumObjects())
			ov := idx.ViewAt(oid)
			if idx.HasAnsweredAt(wid, oid) || slices.ContainsFunc(out, func(a data.Answer) bool {
				return a.Worker == w.Name && a.Object == ov.Object
			}) {
				continue
			}
			out = append(out, data.Answer{Object: ov.Object, Worker: w.Name, Value: w.Answer(rng, ds, ov)})
			n++
		}
	}
	return out
}

// checkSameIndex asserts that grown and scratch index the same dataset:
// the same sizes and claim totals, and every object's view equal by name.
func checkSameIndex(t *testing.T, grown, scratch *data.Index) {
	t.Helper()
	if grown.NumObjects() != scratch.NumObjects() || grown.NumSources() != scratch.NumSources() ||
		grown.NumWorkers() != scratch.NumWorkers() || grown.NumSourceClaims() != scratch.NumSourceClaims() ||
		grown.NumWorkerClaims() != scratch.NumWorkerClaims() {
		t.Fatal("grown and scratch indexes differ in size")
	}
	for _, o := range scratch.Objects {
		data.CheckSameView(t, grown, scratch, o)
	}
}

// TestNewIndexAllocs pins the build's allocation count: a handful per
// index-wide slab and map, none per object. The string-keyed build it
// replaced made ~151k allocations on this input.
func TestNewIndexAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds BirthPlaces at full scale")
	}
	ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 1, Scale: 1})
	if allocs := testing.AllocsPerRun(3, func() { data.NewIndex(ds) }); allocs > 1000 {
		t.Fatalf("NewIndex(BirthPlaces x1) made %.0f allocations, want <= 1000", allocs)
	}
	ci := data.NewIndex(ds).ViewAt(0).CI
	v := ci.Values[len(ci.Values)-1]
	if allocs := testing.AllocsPerRun(100, func() { ci.Pos(v) }); allocs != 0 {
		t.Fatalf("CandidateIndex.Pos made %.0f allocations, want 0", allocs)
	}
}

// BenchmarkNewIndex times one full index build at the workloads' sizes:
// crowd_batch's BirthPlaces, ingest_publish's 12k-object BirthPlaces and
// ingest_refit's Heritages with its final answer count.
func BenchmarkNewIndex(b *testing.B) {
	for _, c := range []struct {
		name string
		ds   func() *data.Dataset
	}{
		{"BirthPlacesX1", func() *data.Dataset {
			return synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 1, Scale: 1})
		}},
		{"BirthPlacesX2", func() *data.Dataset {
			return synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 1, Scale: 2})
		}},
		{"HeritagesX1+6750answers", func() *data.Dataset {
			return withAnswers(synth.Heritages(synth.HeritagesConfig{Seed: 1, Scale: 1}), 6750, 256, 1)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds := c.ds()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data.NewIndex(ds)
			}
		})
	}
}

// BenchmarkExtend times two Extend shapes: one open-world growth op — a new
// object with three candidates and two source records — on ingest_publish's
// 12k-object BirthPlaces index, and one crowd round — 50 answers from 10
// workers, as crowd.RunLoop extends its index by — on crowd_batch's
// BirthPlaces.
func BenchmarkExtend(b *testing.B) {
	b.Run("Growth", func(b *testing.B) {
		ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 1, Scale: 2})
		idx := data.NewIndex(ds)
		leaves := ds.H.Leaves()
		mu := data.Mutation{
			Candidates: map[string][]string{"grown:0": leaves[:3]},
			Records: []data.Record{
				{Object: "grown:0", Source: "grown-src-0", Value: leaves[0]},
				{Object: "grown:0", Source: "grown-src-1", Value: leaves[1]},
			},
		}
		benchExtend(b, idx, data.ApplyMutation(ds, mu), mu)
	})
	b.Run("CrowdRound", func(b *testing.B) {
		ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 1, Scale: 1})
		pool := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: 1, Count: 10, Pi: 0.75})
		rng := rand.New(rand.NewSource(1))
		// The index after one earlier round, so every worker is known.
		first := data.Mutation{Answers: loopRound(rng, ds, data.NewIndex(ds), pool, 5)}
		ds = data.ApplyMutation(ds, first)
		idx := data.NewIndex(ds)
		mu := data.Mutation{Answers: loopRound(rng, ds, idx, pool, 5)}
		benchExtend(b, idx, data.ApplyMutation(ds, mu), mu)
	})
}

func benchExtend(b *testing.B, idx *data.Index, ds *data.Dataset, mu data.Mutation) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Extend(ds, mu)
	}
}
