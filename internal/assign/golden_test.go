package assign

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/infer"
	"repro/internal/synth"
)

// withHistory appends n synthesized answers from a 10-worker pool to ds, so
// every worker's ψ is fitted rather than the prior mean, and returns the
// pool's names.
func withHistory(ds *data.Dataset, n int) []string {
	pool := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: 3, Count: 10, Pi: 0.75})
	names := make([]string, len(pool))
	for i, w := range pool {
		names[i] = w.Name
	}
	idx := data.NewIndex(ds)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		w := pool[i%len(pool)]
		o := idx.Objects[(i*37)%len(idx.Objects)]
		ds.Answers = append(ds.Answers, data.Answer{Object: o, Worker: w.Name, Value: w.Answer(rng, ds, idx.View(o))})
	}
	return names
}

// TestEAIGolden pins EAI to the bit for workers with history: the hash over
// AssignWithStats' assignments and pruning statistics (with and without the
// UEAI bound) and over the plan's cold-worker scores (its cold-worker
// ranking's keys, laid out by object ID) was recorded before
// ExpectedCondMaxAt fused its likelihood and conditional-max passes.
func TestEAIGolden(t *testing.T) {
	for _, c := range []struct {
		ds      *data.Dataset
		answers int
		want    uint64
	}{
		{synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: 0.25}), 400, 0x9206d967db9bcfd},
		{synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: 0.05}), 300, 0xda5a0544ae9ec75d},
	} {
		workers := withHistory(c.ds, c.answers)
		idx := data.NewIndex(c.ds)
		res := infer.NewTDH().Infer(idx)
		h := fnv.New64a()
		var buf [8]byte
		put := func(x uint64) {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
		for _, e := range []EAI{{}, {DisablePruning: true}} {
			tasks, stats := e.AssignWithStats(&Context{Idx: idx, Res: res, Workers: workers, K: 5, Seed: 1})
			for _, w := range slices.Sorted(slices.Values(workers)) {
				for _, o := range tasks[w] {
					h.Write([]byte(w + "\x00" + o + "\x00"))
				}
			}
			put(uint64(stats.Evaluated))
			put(uint64(stats.Pruned))
		}
		for _, s := range NewPlan(idx, res).coldScores() {
			put(math.Float64bits(s))
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: EAI hash %#x, want %#x", c.ds.Name, got, c.want)
		}
	}
}

// TestAssignerGolden pins ME, MB and QASCA to the bit for workers with
// history: the hash over each one's assignment — MB over a DOCS fit and over
// TDH's, where it falls back to the scalar worker trust — with no plan
// attached and with NewPlan's attached.
func TestAssignerGolden(t *testing.T) {
	for _, c := range []struct {
		ds      *data.Dataset
		answers int
		want    uint64
	}{
		{synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: 0.25}), 400, 0xa180a248cfde697},
		{synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: 0.05}), 300, 0x52d9b970af06ec9d},
	} {
		workers := withHistory(c.ds, c.answers)
		idx := data.NewIndex(c.ds)
		tdh, docs := infer.NewTDH().Infer(idx), infer.DOCS{}.Infer(idx)
		h := fnv.New64a()
		for _, run := range []struct {
			asg Assigner
			res *infer.Result
		}{{ME{}, tdh}, {MB{}, docs}, {MB{}, tdh}, {QASCA{}, tdh}} {
			for _, p := range []*Plan{nil, NewPlan(idx, run.res)} {
				tasks := run.asg.Assign(&Context{Idx: idx, Res: run.res, Plan: p, Workers: workers, K: 5, Seed: 1})
				h.Write([]byte(run.asg.Name() + "\x00"))
				for _, w := range slices.Sorted(slices.Values(workers)) {
					for _, o := range tasks[w] {
						h.Write([]byte(w + "\x00" + o + "\x00"))
					}
				}
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: assigner hash %#x, want %#x", c.ds.Name, got, c.want)
		}
	}
}
