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
// UEAI bound) and over the cold-worker scores Prewarm fills was recorded
// before ExpectedCondMaxAt fused its likelihood and conditional-max passes.
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
		p := NewPlan(idx, res)
		p.Prewarm()
		for oid := 0; oid < idx.NumObjects(); oid++ {
			put(math.Float64bits(p.eaiDefault.At(oid)))
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: EAI hash %#x, want %#x", c.ds.Name, got, c.want)
		}
	}
}
