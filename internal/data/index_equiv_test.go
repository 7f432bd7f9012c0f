package data_test

import (
	"math/rand"
	"reflect"
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
// mutations and compares every step, view by view, with a from-scratch
// build of the same dataset.
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
	ds, idx := base, data.NewIndex(base)
	for k, mu := range muts {
		ds = data.ApplyMutation(ds, mu)
		idx, _ = idx.Extend(ds, mu)
		scratch := data.NewIndex(ds)
		if idx.NumObjects() != scratch.NumObjects() || idx.NumSources() != scratch.NumSources() ||
			idx.NumWorkers() != scratch.NumWorkers() || idx.NumSourceClaims() != scratch.NumSourceClaims() ||
			idx.NumWorkerClaims() != scratch.NumWorkerClaims() {
			t.Fatalf("mutation %d: grown and scratch indexes differ in size", k)
		}
		for _, o := range scratch.Objects {
			g := idx.View(o)
			if g == nil {
				t.Fatalf("mutation %d: grown index missing %q", k, o)
			}
			data.CheckSameView(t, g, scratch.View(o))
		}
		for _, w := range scratch.WorkerNames {
			if got, want := idx.ObjectsOfWorker(w), scratch.ObjectsOfWorker(w); !reflect.DeepEqual(got, want) {
				t.Fatalf("mutation %d: Ow(%s) grown %v scratch %v", k, w, got, want)
			}
		}
		data.CheckCarved(t, idx)
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

// BenchmarkExtend times one open-world growth op — a new object with three
// candidates and two source records — on the 12k-object BirthPlaces index.
func BenchmarkExtend(b *testing.B) {
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
	grown := data.ApplyMutation(ds, mu)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Extend(grown, mu)
	}
}
