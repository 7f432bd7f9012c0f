package assign

import (
	"cmp"
	"container/heap"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
)

// EAI implements the paper's Expected Accuracy Increase assigner
// (Section 4): for worker w and object o,
//
//	EAI(w,o) = ( E[max_v μ_{o,v|w}] - max_v μ_{o,v} ) / |O|     (Eq. 14)
//
// with the expectation over the worker's answer distribution (Eq. 15) and
// the conditional confidence from one incremental EM step (Eq. 18). The
// 1/|O| factor is the same for every pair, so this package scores, bounds
// and ranks by |O|·EAI and |O|·UEAI, and divides by |O| only where a value
// leaves it (Plan.UEAIMax, EstimateImprovement).
// Assignment follows Algorithm 1: objects are scanned in decreasing order
// of the upper bound UEAI(o) (Lemma 4.1) and handed to workers in
// decreasing ψ_{w,1}, with per-worker min-heaps of size K; the UEAI bound
// prunes EAI evaluations that cannot enter a heap.
//
// The decreasing-bound scan order, each entry carrying its bound, is
// worker-independent, so it lives in the shared Plan (precomputed once per
// snapshot); an Assign call for several workers — or with pruning off, or
// on a plan built per call — walks that order, filters each worker's
// answered set, and evaluates EAI where the bound admits it. One worker on
// an attached served plan — every /task — is answered from the plan in
// closed form instead, with the assignment the walk would return (topK):
// at the prior-mean ψ (a cold worker) from the cold-worker score ranking
// (coldTopK), and at a fitted ψ (a returning worker) by scoring only the
// unsettled objects that ranking holds (fittedTopK).
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
	// Evaluated counts the EAI(w,o) computations performed; for a cold
	// worker's call answered in closed form (coldTopK), the plan's ranking
	// entries read.
	Evaluated int
	// Pruned counts the evaluations the UEAI bound skipped, in Algorithm
	// 1's walk only: a one-worker call answered in closed form reads 0.
	Pruned int
	// Settled counts the evaluations the no-flip certificate answered
	// (core.Model.SettledAt): a subset of Evaluated, each an O(|V|) read
	// instead of the expected-max fill. A one-worker call answered in
	// closed form evaluates no settled object, so it reads 0.
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
	out := make(map[string][]string, len(ctx.Workers))
	if len(ctx.Workers) == 0 || ctx.K <= 0 || len(ctx.Idx.Objects) == 0 {
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
	// One worker on a plan holding the cold-worker cache (the served EAI
	// plan) is answered in closed form. A per-call fallback build holds no
	// cache (eaiServed says why), so it walks the scan.
	if len(workers) == 1 && p.reads&coldCache != 0 && p.M != nil && !e.DisablePruning {
		var ids []int32
		if psi := m.PsiOf(workers[0]); psi == p.defaultPsi {
			ids, stats.Evaluated = p.coldTopK(answered, 0, ctx.K, p.boundAt)
		} else {
			tab := core.NewWorkerTab(psi)
			ids, stats.Evaluated = p.fittedTopK(answered, 0, ctx.K, func(oid int32) float64 {
				score, _ := eaiAt(m, int(oid), &tab)
				return score
			}, p.boundAt)
		}
		out[workers[0]] = objectNames(ctx.Idx, ids)
		return out, stats
	}
	tabs := make([]core.WorkerTab, len(workers))
	for i, w := range workers {
		tabs[i] = core.NewWorkerTab(m.PsiOf(w))
	}
	heaps := p.walk(answered, ctx.K, !e.DisablePruning, func(wi int, oid int32) float64 {
		score, settled := eaiAt(m, int(oid), &tabs[wi])
		if settled {
			stats.Settled++
		}
		return score
	}, p.boundAt, &stats)
	for wi, w := range workers {
		ids := make([]int32, 0, len(heaps[wi]))
		for _, en := range heaps[wi] {
			ids = append(ids, en.oid)
		}
		out[w] = objectNames(ctx.Idx, ids)
	}
	return out, stats
}

// walk is Algorithm 1's scan for the workers of answered, in that order
// (decreasing ψ_{w,1}): it visits the plan's UEAI ranking and keeps a
// min-heap of at most k entries per worker, handing an object a full
// worker's heap rejects, or the entry it evicts, to the next worker.
// score(wi, oid) is EAI(w, o) for worker wi and boundAt each object's
// Lemma 4.1 bound (Plan.boundAt), the key of the UEAI ranking. With prune
// set, the bound skips the evaluations that cannot enter a heap (score ≤
// bound), and ends the walk once no remaining object can (Alg. 1, l.8).
// It counts evaluations and skips in stats.
func (p *Plan) walk(answered answeredSets, k int, prune bool, score func(wi int, oid int32) float64, boundAt func(oid int) float64, stats *EAIStats) []eaiHeap {
	heaps := make([]eaiHeap, len(answered))
	full := func() bool {
		for i := range heaps {
			if len(heaps[i]) < k {
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
			if prune && full() && minOverAll() > en.Key {
				break scan // no remaining object can displace anything (Alg. 1, l.8)
			}
			cur, bound := en.ID, en.Key
			for wi := 0; wi < len(heaps) && cur >= 0; wi++ {
				if answered.has(wi, int(cur)) {
					continue
				}
				if prune && len(heaps[wi]) >= k && heaps[wi][0].score >= bound {
					stats.Pruned++
					continue // cannot beat this worker's current minimum
				}
				s := score(wi, cur)
				stats.Evaluated++
				if len(heaps[wi]) < k {
					heap.Push(&heaps[wi], eaiEntry{s, cur})
					cur = -1
					break
				}
				if s > heaps[wi][0].score {
					displaced := heap.Pop(&heaps[wi]).(eaiEntry)
					heap.Push(&heaps[wi], eaiEntry{s, cur})
					// Hand the evicted object, and its bound, to the next worker.
					cur = displaced.oid
					bound = boundAt(int(cur))
				}
			}
		}
	}
	return heaps
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

// candidate is an object a one-worker closed form hands to topK, with its
// EAI score for that worker.
type candidate struct {
	score float64
	oid   int32
}

// coldTopK is the EAI assignment of worker wi of answered, at the plan's
// prior-mean ψ, read off the plan's cold-worker score ranking: the object
// IDs Algorithm 1's scan returns for that worker (topK), and how many
// ranking entries it read. boundAt is each object's Lemma 4.1 bound, the
// key of the plan's UEAI ranking (Plan.boundAt).
//
// It walks coldRank (score descending, ID ascending) to the first entry
// below the K-th unanswered score T, or to the first not above 0,
// collecting the unanswered objects it passes: every one scoring ≥ T when
// T > 0, every positive one otherwise. That costs O(K + the answered
// objects met + the ties at T) entries.
func (p *Plan) coldTopK(answered answeredSets, wi, k int, boundAt func(oid int) float64) (ids []int32, read int) {
	var group []candidate
walk:
	for _, chunk := range p.coldRank.Chunks() {
		for _, en := range chunk {
			read++
			if en.Key <= 0 || len(group) >= k && en.Key < group[k-1].score {
				break walk
			}
			if !answered.has(wi, int(en.ID)) {
				group = append(group, candidate{en.Key, en.ID})
			}
		}
	}
	ids, tail := p.topK(answered, wi, k, group, boundAt)
	return ids, read + tail
}

// fittedTopK is the EAI assignment of worker wi of answered, at any ψ,
// from the plan: the object IDs Algorithm 1's scan returns for that worker
// (topK), and how many scores it evaluated. score(oid) is the worker's EAI
// score and boundAt each object's Lemma 4.1 bound (Plan.boundAt).
//
// A settled object scores 0 for every worker, so only the non-negative
// prefix of coldRank — the unsettled objects — can score above 0. It
// scores every unanswered object of that prefix and keeps the positive
// scores at least the K-th best met so far: every object scoring ≥ T when
// T > 0, every positive one otherwise. Only a score that reached the K-th
// best of its time is kept, and nothing else evaluated is kept or sorted.
// No bound is read: in cold-worker order a skip by bound rarely fires.
func (p *Plan) fittedTopK(answered answeredSets, wi, k int, score func(oid int32) float64, boundAt func(oid int) float64) (ids []int32, evaluated int) {
	var group []candidate
	best := make([]float64, 0, k) // the k largest positive scores met, descending
walk:
	for _, chunk := range p.coldRank.Chunks() {
		for _, en := range chunk {
			if en.Key < 0 {
				break walk // settled from here on
			}
			if answered.has(wi, int(en.ID)) {
				continue
			}
			s := score(en.ID)
			evaluated++
			if s <= 0 || len(best) == k && s < best[k-1] {
				continue
			}
			group = append(group, candidate{s, en.ID})
			if len(best) < k {
				best = append(best, s)
			}
			i := len(best) - 1
			for ; i > 0 && best[i-1] < s; i-- {
				best[i] = best[i-1]
			}
			best[i] = s
		}
	}
	ids, _ = p.topK(answered, wi, k, group, boundAt)
	return ids, evaluated
}

// topK is the EAI assignment of worker wi of answered under the UEAI bound
// — the object IDs Algorithm 1's scan returns for that one worker — given
// group, the unanswered objects with a positive score of which it holds
// every one scoring ≥ T below (every positive one when T = 0), in any
// order; and how many UEAI ranking entries it read. boundAt (Plan.boundAt)
// is read only to order ties at T. Nothing here depends on the worker's ψ,
// so it serves a cold worker (coldTopK) and a returning one (fittedTopK)
// alike.
//
// Let U be the unanswered objects, s their scores (all ≥ 0: eaiAt clamps
// the noise floor to 0) and, when |U| ≥ K, T the K-th largest score in U,
// with c objects of U scoring above it. The scan returns
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
// since score ≤ bound (Lemma 4.1). The argument uses the scores only through
// their order and score ≤ bound, never the worker's ψ.
//
// Reading it off group:
//   - T > 0: group holds at least K objects, its K-th largest score is T,
//     and ordering its objects ≥ T by (bound descending, ID ascending) — the
//     UEAI order — gives the first K of them; when exactly K score ≥ T, the
//     first K are all of them, and no bound is read;
//   - otherwise group is every positive object of U (c < K of them), and
//     the first K unanswered entries of ueaiRank are the first K objects
//     ≥ T = 0 in UEAI order: those outside group score 0.
func (p *Plan) topK(answered answeredSets, wi, k int, group []candidate, boundAt func(oid int) float64) (ids []int32, read int) {
	ids = make([]int32, 0, k)
	var ties []int32 // of the first K objects ≥ T in UEAI order, those scoring T
	if len(group) >= k {
		slices.SortFunc(group, func(a, b candidate) int { return cmp.Compare(b.score, a.score) })
		t := group[k-1].score
		n := k
		for n < len(group) && group[n].score == t {
			n++
		}
		group = group[:n]
		if n > k { // ties at T overflow the K places: order as UEAI does
			type bounded struct {
				bound float64
				candidate
			}
			inOrder := make([]bounded, n)
			for i, c := range group {
				inOrder[i] = bounded{boundAt(int(c.oid)), c}
			}
			slices.SortFunc(inOrder, func(a, b bounded) int {
				return cmp.Or(cmp.Compare(b.bound, a.bound), cmp.Compare(a.oid, b.oid))
			})
			for i, c := range inOrder {
				group[i] = c.candidate
			}
		}
		for i, c := range group {
			if c.score > t {
				ids = append(ids, c.oid)
			} else if i < k {
				ties = append(ties, c.oid)
			}
		}
	} else {
		for _, c := range group {
			ids = append(ids, c.oid)
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

// eaiAt computes |O|·EAI(w, o) = E[max_v μ_{o,v|w}] − max_v μ_{o,v} per
// Eqs. (14)–(15) with the incremental EM, entirely on ID-indexed model
// state, for the worker whose ψ tab was built from. On an object the no-flip
// certificate settles (core.Model.SettledAt) the clamped score is 0 for
// every worker, so it returns 0 after one read of the object's N row, with
// settled set, instead of filling |V| answer rows.
//
//tdh:hotpath
func eaiAt(m *core.Model, oid int, tab *core.WorkerTab) (score float64, settled bool) {
	if m.SettledAt(oid) {
		return 0, true
	}
	score = m.ExpectedCondMaxAt(oid, tab) - maxOf(m.MuAt(oid))
	// Clamp the numerical noise floor: an uncertified object whose exact
	// expectation is zero (no single answer moves its argmax, though the
	// certificate could not show it) leaves ±1e-12-grade residue that would
	// otherwise order the heap arbitrarily. With a hard zero, equal-score
	// objects keep the UEAI scan order (most uncertain per collected claim
	// first).
	if score < 1e-9 {
		score = 0
	}
	return score, false
}
