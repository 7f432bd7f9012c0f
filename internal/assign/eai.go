package assign

import (
	"container/heap"
	"sort"

	"repro/internal/core"
	"repro/internal/cow"
)

// EAI implements the paper's Expected Accuracy Increase assigner
// (Section 4): for worker w and object o,
//
//	EAI(w,o) = ( E[max_v μ_{o,v|w}] - max_v μ_{o,v} ) / |O|     (Eq. 14)
//
// with the expectation over the worker's answer distribution (Eq. 15) and
// the conditional confidence from one incremental EM step (Eq. 18).
// Assignment follows Algorithm 1: objects are scanned in decreasing order
// of the upper bound UEAI(o) (Lemma 4.1) and handed to workers in
// decreasing ψ_{w,1}, with per-worker min-heaps of size K; the UEAI bound
// prunes EAI evaluations that cannot enter a heap.
//
// The UEAI bounds and their decreasing-bound scan order are worker-
// independent, so they live in the shared Plan (precomputed once per
// snapshot); an Assign call only walks that order, filters each worker's
// answered set, and evaluates EAI where the bound admits it.
type EAI struct {
	// DisablePruning computes EAI for every (worker, object) pair —
	// the ablation measured in Figure 13.
	DisablePruning bool
}

// Name implements Assigner.
func (e EAI) Name() string {
	if e.DisablePruning {
		return "EAI-NOPRUNE"
	}
	return "EAI"
}

// Stats from the last Assign call (not goroutine-safe), used by the
// Figure 13 experiment to report pruning effectiveness.
type EAIStats struct {
	Evaluated int // EAI(w,o) computations performed
	Pruned    int // evaluations skipped by the UEAI bound
}

// eaiEntry is a (score, object ID) pair in a per-worker min-heap. Object
// IDs order like object names (Idx.Objects is sorted), so the ID tie-break
// matches the original name-based one.
type eaiEntry struct {
	score float64
	oid   int32
}

type eaiHeap []eaiEntry

func (h eaiHeap) Len() int      { return len(h) }
func (h eaiHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h eaiHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score // min-heap
	}
	return h[i].oid > h[j].oid
}
func (h *eaiHeap) Push(x any) { *h = append(*h, x.(eaiEntry)) }
func (h *eaiHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Assign implements Assigner. ctx.Res.Model must be a *core.Model (EAI is
// TDH-specific, as in the paper); it panics otherwise.
func (e EAI) Assign(ctx *Context) map[string][]string {
	out, _ := e.AssignWithStats(ctx)
	return out
}

// AssignWithStats is Assign plus pruning statistics.
func (e EAI) AssignWithStats(ctx *Context) (map[string][]string, EAIStats) {
	p := ctx.plan()
	m := p.M
	if m == nil {
		m = ctx.Res.Model.(*core.Model)
	}
	var stats EAIStats
	nObj := float64(len(ctx.Idx.Objects))
	out := make(map[string][]string, len(ctx.Workers))
	if len(ctx.Workers) == 0 || ctx.K <= 0 || nObj == 0 {
		return out, stats
	}

	// Workers in decreasing ψ_{w,1} (Algorithm 1); ψ and dense worker IDs
	// are resolved once per call.
	workers := append([]string(nil), ctx.Workers...)
	sort.SliceStable(workers, func(i, j int) bool {
		return m.PsiOf(workers[i])[0] > m.PsiOf(workers[j])[0]
	})
	wids := workerIDs(ctx.Idx, workers)
	psis := make([][3]float64, len(workers))
	cached := make([]bool, len(workers))
	anyCached := false
	// The cold-worker score cache applies only to a pre-attached (shared,
	// typically prewarmed) plan: filling it inside a per-call fallback
	// build would evaluate EAI for every object up front, defeating the
	// very pruning Lemma 4.1 provides — and the Figure 13 ablation that
	// measures it.
	attached := ctx.Plan == p
	for i, w := range workers {
		psis[i] = m.PsiOf(w)
		// Workers at the prior-mean ψ (every cold worker) read the plan's
		// precomputed scores; eaiAt with the same inputs returns the same
		// float, so the cache changes nothing but the evaluation cost.
		cached[i] = attached && p.M == m && psis[i] == p.defaultPsi
		anyCached = anyCached || cached[i]
	}
	var defScores *cow.Vec[float64]
	if anyCached {
		defScores = p.defaultScores()
	}
	heaps := make([]eaiHeap, len(workers))

	full := func() bool {
		for i := range heaps {
			if len(heaps[i]) < ctx.K {
				return false
			}
		}
		return true
	}
	minOverAll := func() float64 {
		mn := 0.0
		first := true
		for i := range heaps {
			if len(heaps[i]) == 0 {
				return 0
			}
			if first || heaps[i][0].score < mn {
				mn = heaps[i][0].score
				first = false
			}
		}
		return mn
	}

	// Walk the precomputed UEAI order — the same sequence the original
	// per-call max-heap popped, without rebuilding bounds per request —
	// chunk by chunk, each entry carrying its bound.
scan:
	for _, chunk := range p.ueaiRank.Chunks() {
		for _, en := range chunk {
			if !e.DisablePruning && full() && minOverAll() > en.Key {
				break scan // no remaining object can displace anything (Alg. 1, l.8)
			}
			cur := en.ID
			for wi := 0; wi < len(workers) && cur >= 0; wi++ {
				if ctx.Idx.HasAnsweredAt(wids[wi], int(cur)) {
					continue
				}
				if !e.DisablePruning && len(heaps[wi]) >= ctx.K && heaps[wi][0].score >= p.ueai.At(int(cur)) {
					stats.Pruned++
					continue // cannot beat this worker's current minimum
				}
				var score float64
				if cached[wi] {
					score = defScores.At(int(cur))
				} else {
					score = eaiAt(m, int(cur), psis[wi], nObj)
				}
				stats.Evaluated++
				if len(heaps[wi]) < ctx.K {
					heap.Push(&heaps[wi], eaiEntry{score, cur})
					cur = -1
					break
				}
				if score > heaps[wi][0].score {
					displaced := heap.Pop(&heaps[wi]).(eaiEntry)
					heap.Push(&heaps[wi], eaiEntry{score, cur})
					cur = displaced.oid // hand the evicted object to the next worker
				}
			}
		}
	}
	for wi, w := range workers {
		ids := make([]int32, 0, len(heaps[wi]))
		for _, en := range heaps[wi] {
			ids = append(ids, en.oid)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		objs := make([]string, len(ids))
		for i, oid := range ids {
			objs[i] = ctx.Idx.Objects[oid]
		}
		out[w] = objs
	}
	return out, stats
}

// eaiAt computes EAI(w, o) per Eqs. (14)–(15) with the incremental EM,
// entirely on ID-indexed model state.
//
//tdh:hotpath
func eaiAt(m *core.Model, oid int, psi [3]float64, nObj float64) float64 {
	score := (m.ExpectedCondMaxAt(oid, psi) - maxOf(m.MuAt(oid))) / nObj
	// Clamp the numerical noise floor: when no single answer can move the
	// argmax, the exact expectation is zero but floating-point evaluation
	// leaves ±1e-12-grade residue that would otherwise order the heap
	// arbitrarily. With a hard zero, equal-score objects keep the UEAI scan
	// order (most uncertain per collected claim first).
	if score < 1e-9/nObj {
		score = 0
	}
	return score
}
