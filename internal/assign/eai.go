package assign

import (
	"cmp"
	"container/heap"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/cow"
	"repro/internal/data"
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
// The decreasing-bound scan order, each entry carrying its bound, is
// worker-independent, so it lives in the shared Plan (precomputed once per
// snapshot); an Assign call only walks that order, filters each worker's
// answered set, and evaluates EAI where the bound admits it. One worker at
// the prior-mean ψ — every cold /task — is answered from the attached
// plan's cold-worker score ranking instead, in closed form (coldTopK), with
// the assignment the walk would return.
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

// EAIStats counts one AssignWithStats call's work, returned with its
// assignment: the Figure 13 experiment reports pruning effectiveness from
// it, and the crowd server observes it per /task.
type EAIStats struct {
	// Evaluated counts the EAI(w,o) computations performed; for a call
	// answered in closed form (coldTopK), the plan's ranking entries read.
	Evaluated int
	Pruned    int // evaluations skipped by the UEAI bound; 0 in closed form
	// Settled counts the evaluations the no-flip certificate answered
	// (core.Model.SettledAt): a subset of Evaluated, each an O(|V|) read
	// instead of the expected-max fill; 0 in closed form.
	Settled int
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
	p := ctx.plan(bounds)
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
	answered := newAnsweredSets(ctx.Idx, wids)
	// One worker at the prior-mean ψ on a plan holding the cold-worker
	// cache (the served EAI plan) reads its ranking. A per-call fallback
	// build holds no cache (eaiServed says why), so it walks the scan.
	if len(workers) == 1 && p.reads&coldCache != 0 && p.M != nil && !e.DisablePruning && m.PsiOf(workers[0]) == p.defaultPsi {
		ids, read := p.coldTopK(answered, 0, ctx.K, p.boundAt)
		stats.Evaluated = read
		out[workers[0]] = objectNames(ctx.Idx, ids)
		return out, stats
	}
	tabs := make([]core.WorkerTab, len(workers))
	for i, w := range workers {
		tabs[i] = core.NewWorkerTab(m.PsiOf(w))
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
			cur, bound := en.ID, en.Key
			for wi := 0; wi < len(workers) && cur >= 0; wi++ {
				if answered.has(wi, int(cur)) {
					continue
				}
				if !e.DisablePruning && len(heaps[wi]) >= ctx.K && heaps[wi][0].score >= bound {
					stats.Pruned++
					continue // cannot beat this worker's current minimum
				}
				score, settled := eaiAt(m, int(cur), &tabs[wi], nObj)
				if settled {
					stats.Settled++
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
					// Hand the evicted object, and its bound, to the next worker.
					cur = displaced.oid
					bound = p.boundAt(int(cur))
				}
			}
		}
	}
	for wi, w := range workers {
		ids := make([]int32, 0, len(heaps[wi]))
		for _, en := range heaps[wi] {
			ids = append(ids, en.oid)
		}
		out[w] = objectNames(ctx.Idx, ids)
	}
	return out, stats
}

// objectNames sorts ids and returns their object names: an assignment in
// name order.
func objectNames(idx *data.Index, ids []int32) []string {
	slices.Sort(ids)
	objs := make([]string, len(ids))
	for i, oid := range ids {
		objs[i] = idx.Objects[oid]
	}
	return objs
}

// coldTopK is the EAI assignment of worker wi of answered, at the plan's
// prior-mean ψ, under the UEAI bound, read off the plan's cold-worker score
// ranking: the object IDs Algorithm 1's scan returns for that worker, and
// how many ranking entries it read. boundAt is each object's Lemma 4.1
// bound, the key of the plan's UEAI ranking (Plan.boundAt).
//
// Let U be the unanswered objects, s their cached scores (all ≥ 0: eaiAt
// clamps the noise floor to 0) and, when |U| ≥ K, T the K-th largest score
// in U, with c objects of U scoring above it. The scan returns
//   - every object of U scoring above T, and, of the first K objects of U
//     scoring ≥ T in UEAI order, the K − c with the lowest IDs among those
//     scoring exactly T;
//   - all of U when |U| < K (it never fills the heap).
//
// Why: until the heap holds K entries every unanswered object enters it.
// While fewer than K objects ≥ T have been met, the heap holds an entry
// below T, so its minimum is below T: each object ≥ T enters, evicting an
// entry below T, and none ≥ T is evicted. At the K-th object ≥ T in scan
// order the heap therefore holds exactly the first K of them. From then on
// its minimum is T (it holds at most c − 1 objects above T before the last
// one arrives): an object scoring T cannot enter (entry needs score > min),
// and each later object above T evicts the minimum under eaiHeap.Less — the
// highest-ID entry scoring T. The prune test (minimum ≥ bound) and the
// break (minimum > bound) skip only objects that could not enter anyway,
// since score ≤ bound (Lemma 4.1).
//
// Reading it costs O(K + the answered objects met + the ties at T):
//   - T > 0: walk coldRank (score descending, ID ascending) to the first
//     entry below T, collecting the unanswered ones — the objects ≥ T —
//     with their bounds, and order that group by (bound descending, ID
//     ascending);
//   - otherwise the walk reaches the zeros first, having collected every
//     positive object of U (c < K of them), and the first K unanswered
//     entries of ueaiRank are the first K objects ≥ T = 0 in UEAI order:
//     those outside the group score 0.
func (p *Plan) coldTopK(answered answeredSets, wi, k int, boundAt func(oid int) float64) (ids []int32, read int) {
	type member struct {
		cow.Entry
		bound float64
	}
	var group []member // the unanswered objects ≥ T, or every positive one
walk:
	for _, chunk := range p.coldRank.Chunks() {
		for _, en := range chunk {
			read++
			if en.Key <= 0 || len(group) >= k && en.Key < group[k-1].Key {
				break walk
			}
			if !answered.has(wi, int(en.ID)) {
				group = append(group, member{en, boundAt(int(en.ID))})
			}
		}
	}
	ids = make([]int32, 0, k)
	var ties []int32 // of the first K objects ≥ T in UEAI order, those scoring T
	if len(group) >= k {
		t := group[k-1].Key
		slices.SortFunc(group, func(a, b member) int {
			return cmp.Or(cmp.Compare(b.bound, a.bound), cmp.Compare(a.ID, b.ID))
		})
		for i, m := range group {
			if m.Key > t {
				ids = append(ids, m.ID)
			} else if i < k {
				ties = append(ties, m.ID)
			}
		}
	} else {
		for _, m := range group {
			ids = append(ids, m.ID)
		}
		met := 0
	scan:
		for _, chunk := range p.ueaiRank.Chunks() {
			for _, en := range chunk {
				if met == k {
					break scan
				}
				read++
				if answered.has(wi, int(en.ID)) {
					continue
				}
				met++
				if !slices.Contains(ids, en.ID) {
					ties = append(ties, en.ID)
				}
			}
		}
	}
	slices.Sort(ties)
	return append(ids, ties[:min(k-len(ids), len(ties))]...), read
}

// answeredSets holds, for each worker of one Assign call, a bitset over the
// index's objects of those the worker has answered (Idx.WorkerObjIDs): a
// word read per scanned (worker, object) pair where Index.HasAnsweredAt
// would binary-search the object's claims. ⌈|O|/64⌉ words per worker the
// index knows; nil for a worker it has never seen, who answered nothing.
type answeredSets [][]uint64

// newAnsweredSets marks the answered objects of each worker in wids (-1: a
// worker the index has never seen).
func newAnsweredSets(idx *data.Index, wids []int) answeredSets {
	words, known := (idx.NumObjects()+63)/64, 0
	for _, wid := range wids {
		if wid >= 0 {
			known++
		}
	}
	slab := make([]uint64, known*words)
	s := make(answeredSets, len(wids))
	for wi, wid := range wids {
		if wid < 0 {
			continue
		}
		row := slab[:words:words]
		slab = slab[words:]
		for _, oid := range idx.WorkerObjIDs[wid] {
			row[oid>>6] |= 1 << (oid & 63)
		}
		s[wi] = row
	}
	return s
}

// has reports whether worker wi (its position in newAnsweredSets' wids)
// answered object oid.
func (s answeredSets) has(wi, oid int) bool {
	row := s[wi]
	return row != nil && row[uint(oid)>>6]&(1<<(uint(oid)&63)) != 0
}

// eaiAt computes EAI(w, o) per Eqs. (14)–(15) with the incremental EM,
// entirely on ID-indexed model state, for the worker whose ψ tab was built
// from. On an object the no-flip certificate settles (core.Model.SettledAt)
// the clamped score is 0 for every worker, so it returns 0 after one read of
// the object's N row, with settled set, instead of filling |V| answer rows.
//
//tdh:hotpath
func eaiAt(m *core.Model, oid int, tab *core.WorkerTab, nObj float64) (score float64, settled bool) {
	if m.SettledAt(oid) {
		return 0, true
	}
	score = (m.ExpectedCondMaxAt(oid, tab) - maxOf(m.MuAt(oid))) / nObj
	// Clamp the numerical noise floor: an uncertified object whose exact
	// expectation is zero (no single answer moves its argmax, though the
	// certificate could not show it) leaves ±1e-12-grade residue that would
	// otherwise order the heap arbitrarily. With a hard zero, equal-score
	// objects keep the UEAI scan order (most uncertain per collected claim
	// first).
	if score < 1e-9/nObj {
		score = 0
	}
	return score, false
}
