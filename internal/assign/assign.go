// Package assign implements the task-assignment side of crowdsourced truth
// discovery (Section 4): the paper's EAI algorithm with its incremental EM
// and UEAI pruning bound, plus the compared baselines QASCA, ME
// (max-entropy / uncertainty sampling) and MB (DOCS's assigner).
//
// All assigners run dense-ID-based over a shared, immutable Plan — the
// worker-independent precompute that the crowd server builds once per
// published snapshot and attaches to the Context. A plan serves one
// assigner and holds only the rankings that assigner walks (PlanFor): EAI's
// objects by UEAI bound (its scan order) and by cold-worker score, ME's by
// entropy; MB and QASCA read confidence rows alone, which every plan serves
// by object ID. Per request, an assigner only does the worker-dependent part:
// filtering the worker's answered set and scoring/ranking against the plan.
// Callers that do not provide a Plan (the crowd loop, experiments), or
// provide one built for another assigner, get one built on the fly with the
// calling assigner's parts, so the name-keyed Assigner interface is
// unchanged.
package assign

import (
	"math"
	"sync/atomic"

	"repro/internal/cow"
	"repro/internal/data"
	"repro/internal/infer"
)

// Context is the input of one assignment round.
type Context struct {
	Idx *data.Index
	// Res is the inference result of the current round; assigners read
	// confidences, trust values and (for EAI/MB) the model state.
	Res *infer.Result
	// Plan, when set, is the precomputed worker-independent plan for
	// (Idx, Res) — the server attaches the snapshot-resident plan here so
	// /task serving never rebuilds it per request. Assigners fall back to
	// building one when it is absent, belongs to a different snapshot, or
	// lacks the parts they read (it was built for another assigner).
	Plan *Plan
	// PlanFallbacks, when non-nil, is incremented every time an attached
	// Plan turned out stale (Idx/Res mismatch) or built for another
	// assigner, and a plan was rebuilt in-line. The server wires its counter here so a plan-threading
	// regression shows up in /stats instead of only as latency.
	PlanFallbacks *atomic.Int64
	// Workers are the workers available this round.
	Workers []string
	// K is the number of questions per worker.
	K int
	// Seed drives any sampling the assigner performs (QASCA).
	Seed int64
}

// Assigner selects, for every worker, the K objects to ask about.
type Assigner interface {
	Name() string
	Assign(ctx *Context) map[string][]string
}

// entropy computes Shannon entropy of a distribution.
func entropy(p []float64) float64 {
	h := 0.0
	for _, x := range p {
		if x > 0 {
			h -= x * math.Log(x)
		}
	}
	return h
}

// maxOf returns the max of a non-empty slice (0 for empty).
//
//tdh:hotpath
func maxOf(p []float64) float64 {
	m := 0.0
	for _, x := range p {
		if x > m {
			m = x
		}
	}
	return m
}

// workerTrustOf reads a scalar worker trust with fallback.
func workerTrustOf(res *infer.Result, w string, def float64) float64 {
	if t, ok := res.WorkerTrust[w]; ok {
		return t
	}
	return def
}

// dealOut assigns ranked objects round-robin to workers, skipping objects
// a worker has already answered, with at most k per worker and each object
// to at most one worker (the paper's single-answer-per-round policy).
func dealOut(ctx *Context, ranked cow.Ranking) map[string][]string {
	out := make(map[string][]string, len(ctx.Workers))
	if len(ctx.Workers) == 0 || ctx.K <= 0 {
		return out
	}
	wids := workerIDs(ctx.Idx, ctx.Workers)
	need := len(ctx.Workers) * ctx.K
	wi := 0
	for _, chunk := range ranked.Chunks() {
		for _, en := range chunk {
			if need == 0 {
				return out
			}
			// Find the next worker (starting at wi) with room who hasn't
			// answered the object.
			for probe := 0; probe < len(ctx.Workers); probe++ {
				j := (wi + probe) % len(ctx.Workers)
				w := ctx.Workers[j]
				if len(out[w]) >= ctx.K || ctx.Idx.HasAnsweredAt(wids[j], int(en.ID)) {
					continue
				}
				out[w] = append(out[w], ctx.Idx.Objects[en.ID])
				wi = (wi + probe + 1) % len(ctx.Workers)
				need--
				break
			}
		}
	}
	return out
}
