package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
)

// Worker simulates one crowd worker. Per the paper's simulation settings
// (Section 5): a worker answers correctly with probability P and otherwise
// picks uniformly at random from the candidate set. The optional PGen
// probability makes the worker answer with a generalized (ancestor) value,
// used by the human-annotator and AMT profiles of Sections 5.5–5.6.
type Worker struct {
	Name string
	P    float64
	PGen float64
}

// WorkerPoolConfig draws a pool of Count workers with accuracy
// pw ~ U(Pi-0.05, Pi+0.05), the paper's simulated-crowdsourcing setting
// (default Pi = 0.75).
type WorkerPoolConfig struct {
	Seed  int64
	Count int
	Pi    float64
	// PGen gives each worker a generalization tendency (0 for the paper's
	// pure simulation; >0 for human-like profiles).
	PGen float64
}

// NewWorkerPool draws the pool.
func NewWorkerPool(cfg WorkerPoolConfig) []Worker {
	if cfg.Count == 0 {
		cfg.Count = 10
	}
	if cfg.Pi == 0 {
		cfg.Pi = 0.75
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 404))
	out := make([]Worker, cfg.Count)
	for i := range out {
		p := cfg.Pi - 0.05 + rng.Float64()*0.10
		if p > 1 {
			p = 1
		}
		if p < 0 {
			p = 0
		}
		out[i] = Worker{Name: fmt.Sprintf("worker-%02d", i), P: p, PGen: cfg.PGen}
	}
	return out
}

// Answer simulates worker w answering object o on dataset ds, selecting
// from the candidate set Vo of the index view. Returns the answer value.
// The rng must be owned by the caller (one per simulation run).
func (w Worker) Answer(rng *rand.Rand, ds *data.Dataset, ov *data.ObjectView) string {
	truth := ds.Truth[ov.Object]
	vals := ov.CI.Values
	if len(vals) == 0 {
		return truth
	}
	r := rng.Float64()
	if r < w.P {
		// Correct: the exact truth if it is a candidate, else the most
		// specific candidate ancestor, else a random candidate (the worker
		// cannot answer outside Vo in the paper's setting).
		if _, ok := ov.CI.Pos(truth); ok {
			return truth
		}
		if ds.H != nil && ds.H.Contains(truth) {
			best, bestDepth := "", -1
			for _, v := range vals {
				if ds.H.IsAncestor(v, truth) && ds.H.Depth(v) > bestDepth {
					best, bestDepth = v, ds.H.Depth(v)
				}
			}
			if best != "" {
				return best
			}
		}
		return vals[rng.Intn(len(vals))]
	}
	if r < w.P+w.PGen && ds.H != nil {
		// Generalized: a candidate proper ancestor of the truth, if any.
		var anc []string
		for _, v := range vals {
			if ds.H.IsAncestor(v, truth) {
				anc = append(anc, v)
			}
		}
		if len(anc) > 0 {
			return anc[rng.Intn(len(anc))]
		}
	}
	return vals[rng.Intn(len(vals))]
}
