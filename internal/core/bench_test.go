package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/synth"
)

// withCrowdAnswers adds n answers from a pool of ten simulated workers
// (accuracy 0.75, the paper's default) to objects drawn uniformly at random,
// as a crowdsourcing campaign accumulates them.
func withCrowdAnswers(ds *data.Dataset, n int) *data.Dataset {
	idx := data.NewIndex(ds)
	pool := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: 7, Count: 10, Pi: 0.75})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		w := pool[i%len(pool)]
		ov := idx.ViewAt(rng.Intn(idx.NumObjects()))
		ds.Answers = append(ds.Answers, data.Answer{Object: ov.Object, Worker: w.Name, Value: w.Answer(rng, ds, ov)})
	}
	return ds
}

// BenchmarkRun times one cold fit, core.Run, on the datasets the benchmark
// workloads fit: BirthPlaces (crowd_batch, ingest_publish) bare, with a
// campaign's worth of answers and at twice the paper's size, and Heritages
// with answers (ingest_refit). evaluations/op is the fit's E/M evaluation
// count, which a kernel change must not move.
func BenchmarkRun(b *testing.B) {
	for _, c := range []struct {
		name string
		ds   func() *data.Dataset
	}{
		{"birthplaces-x1", func() *data.Dataset { return synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: 1}) }},
		{"birthplaces-x1+3750answers", func() *data.Dataset {
			return withCrowdAnswers(synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: 1}), 3750)
		}},
		{"heritages-x1+6750answers", func() *data.Dataset {
			return withCrowdAnswers(synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: 1}), 6750)
		}},
		{"birthplaces-x2", func() *data.Dataset { return synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: 2}) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			idx := data.NewIndex(c.ds())
			b.ReportAllocs()
			evals := 0
			for b.Loop() {
				evals = Run(idx, DefaultOptions()).Iterations
			}
			b.ReportMetric(float64(evals), "evaluations/op")
		})
	}
}

// BenchmarkFanOut times one cold fit on one and on two goroutines, whatever
// the index's size, at sizes either side of parallelFloor: Heritages with
// and without answers (mixed_tenants, ingest_refit) and BirthPlaces from
// half to twice the paper's size (crowd_batch, ingest_publish).
// claims+objects/op is the size the goroutine rule reads; run it at
// GOMAXPROCS >= 2 (the default on a multi-core box) to read the table
// parallelFloor is derived from.
func BenchmarkFanOut(b *testing.B) {
	her := func(scale float64, answers int) func() *data.Dataset {
		return func() *data.Dataset {
			return withCrowdAnswers(synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: scale}), answers)
		}
	}
	bp := func(scale float64, answers int) func() *data.Dataset {
		return func() *data.Dataset {
			return withCrowdAnswers(synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: scale}), answers)
		}
	}
	for _, c := range []struct {
		name string
		ds   func() *data.Dataset
	}{
		{"heritages-x0.5+1000answers", her(0.5, 1000)},
		{"heritages-x1", her(1, 0)},
		{"heritages-x1+6750answers", her(1, 6750)},
		{"birthplaces-x0.5", bp(0.5, 0)},
		{"birthplaces-x0.75", bp(0.75, 0)},
		{"birthplaces-x1", bp(1, 0)},
		{"birthplaces-x1+3750answers", bp(1, 3750)},
		{"birthplaces-x2", bp(2, 0)},
	} {
		idx := data.NewIndex(c.ds())
		size := idx.NumSourceClaims() + idx.NumWorkerClaims() + idx.NumObjects()
		for _, goroutines := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", c.name, goroutines), func(b *testing.B) {
				for b.Loop() {
					run(idx, DefaultOptions(), goroutines)
				}
				b.ReportMetric(float64(size), "claims+objects/op")
			})
		}
	}
}
