// Package crowd runs the simulated crowdsourced truth-discovery loop of the
// paper's Section 5: alternate truth inference and task assignment for a
// number of rounds, feeding simulated worker answers back into the dataset,
// and trace quality metrics per round.
package crowd

import (
	"math/rand"
	"slices"
	"time"

	"repro/internal/assign"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/infer"
	"repro/internal/synth"
)

// Config parameterizes a crowdsourcing run. The paper's defaults: 10
// workers, 5 questions per worker per round, 50 rounds, πp = 0.75.
type Config struct {
	Rounds  int
	K       int
	Seed    int64
	Workers []synth.Worker
	// EvalEvery computes metrics only every n-th round (1 = every round);
	// metrics are always computed at round 0 and the final round.
	EvalEvery int
}

// WithDefaults fills unset fields with the paper's settings.
func (c Config) WithDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 50
	}
	if c.K == 0 {
		c.K = 5
	}
	if len(c.Workers) == 0 {
		c.Workers = synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: c.Seed, Count: 10, Pi: 0.75})
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 1
	}
	return c
}

// RoundStat is the trace entry of one round. Round 0 is the state before
// any crowdsourcing.
type RoundStat struct {
	Round      int
	Scores     eval.Scores
	InferTime  time.Duration
	AssignTime time.Duration
	// EstImprove is the assigner's own estimate of the accuracy gain of the
	// tasks it issued this round (fraction, not pp); NaN when the assigner
	// does not estimate. ActImprove is the realized accuracy change of the
	// NEXT round relative to this one.
	EstImprove float64
	ActImprove float64
	Answers    int // total answers collected so far
}

// Trace is the full run history.
type Trace struct {
	Inference  string
	Assignment string
	Rounds     []RoundStat
}

// Final returns the last round's scores.
func (t *Trace) Final() eval.Scores { return t.Rounds[len(t.Rounds)-1].Scores }

// estimator lets an assigner report its own expected improvement for the
// assignment it produced; EAI and QASCA implement the quality measures
// compared in Figure 7.
type estimator interface {
	EstimateImprovement(ctx *assign.Context, assignment map[string][]string) float64
}

// RunLoop executes the crowdsourced truth-discovery loop: infer, evaluate,
// assign, collect simulated answers; repeat. The input dataset is not
// modified: the loop appends to a shallow copy whose answer slice is
// clipped, so the first append reallocates it.
//
// The index is extended by each round's answers (data.Index.Extend): a
// round re-indexes only the objects it answered and shares every other view
// with the previous round's index. An extended index still holds the memory
// of the views it replaced, which share slabs with live ones, and keeps the
// rebuilt views apart from the rest, which costs the fit's scans over the
// views their locality. So once the answers since the last build reach an
// eighth of the objects, the loop builds the index from scratch instead:
// both costs stay within about an eighth of the index, for one
// data.NewIndex per |O|/8 answers.
//
// Between builds, IDs follow Extend's rule: a worker who first answers after
// the index was built gets an ID after every known worker rather than its
// sorted position, so sums over workers (μ's among them) run in a different
// order than in a from-scratch build, and may differ in the last bits, until
// the next build. No in-tree configuration hits this: every worker of the
// pool is assigned tasks in round 0, so they all enter the index together.
func RunLoop(ds *data.Dataset, inf infer.Inferencer, asg assign.Assigner, cfg Config) *Trace {
	cfg = cfg.WithDefaults()
	work := *ds
	work.Answers = slices.Clip(work.Answers)
	rng := rand.New(rand.NewSource(cfg.Seed + 505))
	workerNames := make([]string, len(cfg.Workers))
	workerByName := map[string]synth.Worker{}
	for i, w := range cfg.Workers {
		workerNames[i] = w.Name
		workerByName[w.Name] = w
	}
	tr := &Trace{Inference: inf.Name(), Assignment: asg.Name()}

	idx := data.NewIndex(&work)
	extended := 0 // answers the index was extended by since it was built
	for round := 0; round <= cfg.Rounds; round++ {
		t0 := time.Now()
		res := inf.Infer(idx)
		inferTime := time.Since(t0)

		st := RoundStat{Round: round, InferTime: inferTime, Answers: len(work.Answers)}
		if round%cfg.EvalEvery == 0 || round == cfg.Rounds {
			st.Scores = eval.Evaluate(&work, idx, res.Truths)
		}
		if round == cfg.Rounds {
			tr.Rounds = append(tr.Rounds, st)
			break
		}

		ctx := &assign.Context{
			Idx:     idx,
			Res:     res,
			Workers: workerNames,
			K:       cfg.K,
			Seed:    cfg.Seed + int64(round)*7919,
		}
		t1 := time.Now()
		tasks := asg.Assign(ctx)
		st.AssignTime = time.Since(t1)
		if est, ok := asg.(estimator); ok {
			st.EstImprove = est.EstimateImprovement(ctx, tasks)
		}
		tr.Rounds = append(tr.Rounds, st)

		// Collect simulated answers and index them.
		before := len(work.Answers)
		for _, w := range workerNames {
			worker := workerByName[w]
			for _, o := range tasks[w] {
				ov := idx.View(o)
				if ov == nil {
					continue
				}
				v := worker.Answer(rng, &work, ov)
				work.Answers = append(work.Answers, data.Answer{Object: o, Worker: w, Value: v})
			}
		}
		fresh := work.Answers[before:]
		if extended += len(fresh); extended < idx.NumObjects()/8 {
			idx, _ = idx.Extend(&work, data.Mutation{Answers: fresh})
		} else {
			idx, extended = data.NewIndex(&work), 0
		}
	}
	// Fill actual improvements: realized accuracy deltas between
	// consecutive evaluated rounds.
	for i := 0; i+1 < len(tr.Rounds); i++ {
		tr.Rounds[i].ActImprove = tr.Rounds[i+1].Scores.Accuracy - tr.Rounds[i].Scores.Accuracy
	}
	return tr
}
