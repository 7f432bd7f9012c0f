package assign

import (
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/cow"
	"repro/internal/data"
	"repro/internal/infer"
)

// Plan is the worker-independent half of a task-assignment round,
// precomputed once per (Index, Result) pair: max-confidence and entropy of
// each object's confidence row keyed by dense object ID, ME's entropy
// ranking, and — when the result carries a TDH model — the UEAI bounds of
// Lemma 4.1 with the decreasing-bound scan order of Algorithm 1.
//
// The crowd server builds one Plan per published Snapshot and attaches it
// to every assignment Context, so a /task request reads shared read-only
// state instead of an O(|O| log |O|) per-request heap-and-map rebuild: a
// worker with a fitted ψ walks the UEAI order, and a worker at the
// prior-mean ψ reads the head of the cold-worker score ranking (coldTopK).
// A Plan is immutable after NewPlan / Advance: assigners only read it,
// which is what lets concurrent /task requests share one.
//
// Everything per object is persistent (internal/cow): the score arrays are
// copy-on-write pages of 256 objects and the rankings tables of sorted
// chunks of at most 512 entries, so the plan Advance derives shares all of
// it with this one except the pages and chunks the touched objects lie in.
type Plan struct {
	// Idx and Res identify the snapshot the plan was computed from;
	// assigners rebuild the plan when either differs from their Context.
	Idx *data.Index
	Res *infer.Result
	// M is the TDH model behind Res — Res.Rows itself — and nil for non-TDH
	// inferencers (EAI requires it; QASCA/ME/MB run without).
	M *core.Model

	// d is Res.Rows, shaped by Idx: the plan reads confidence rows (Row)
	// from it and holds none of its own, so it never pins memory of any
	// result but the one it serves.
	d infer.Dense
	// maxMu and ent are the per-object max confidence and Shannon entropy.
	maxMu, ent cow.Vec[float64]

	// entRank ranks every object by decreasing entropy, dense ID ascending
	// on ties (the name order for a built index; Index.Extend appends new
	// objects after it) — ME's ranking, shared by every worker.
	entRank cow.Ranking

	// EAI precompute, zero when M is nil: ueai is the Lemma 4.1 bound
	// (1-maxμ)/(|O|·(D_o+1)) per object; ueaiRank ranks every object by
	// decreasing bound — the order Algorithm 1 pops them, each entry
	// carrying its bound inline.
	ueai     cow.Vec[float64]
	ueaiRank cow.Ranking
	// settled counts the objects the no-flip certificate settles
	// (core.Model.SettledAt); 0 when M is nil.
	settled int

	// eaiDefault is EAI(w, o) per object for a worker at the prior-mean ψ —
	// the score EVERY cold worker shares, since a worker with no answer
	// history sits exactly at the prior — and coldRank ranks every object
	// by it (score descending, ID ascending on ties). Together they turn a
	// cold /task request from Algorithm 1's walk into a read of the
	// ranking's head, O(K) entries (coldTopK); workers with fitted ψ still
	// evaluate per call. Both are filled on first use behind one sync.Once
	// (callers without cold workers never pay for them); the server
	// prewarms them at publish time so no request bears the fill.
	// defaultPsi tags the ψ the cache is valid for, and defaultTab is its
	// claim table, built once per plan for the fill and for Advance's
	// rescoring.
	eaiDefaultOnce sync.Once
	eaiDefault     cow.Vec[float64]
	coldRank       cow.Ranking
	defaultPsi     [3]float64
	defaultTab     core.WorkerTab
}

// Row is the confidence row of object oid (nil when the result has none),
// read-only. MaxMu and Ent are its max and its entropy.
func (p *Plan) Row(oid int) []float64 { return p.d.Row(oid) }

func (p *Plan) MaxMu(oid int) float64 { return p.maxMu.At(oid) }
func (p *Plan) Ent(oid int) float64   { return p.ent.At(oid) }

// UEAIMax is the largest Lemma 4.1 bound of the plan — the head of the UEAI
// ranking: no task the plan can hand out adds more than this to the expected
// accuracy. 0 when the result carries no TDH model or ranks no object.
func (p *Plan) UEAIMax() float64 {
	if chunks := p.ueaiRank.Chunks(); len(chunks) > 0 {
		return chunks[0][0].Key
	}
	return 0
}

// Settled is the number of objects the no-flip certificate settles
// (core.Model.SettledAt): no single further answer moves their truth before
// the next refit. 0 when the result carries no TDH model.
func (p *Plan) Settled() int { return p.settled }

// countSettled counts the model's settled objects, O(Σ|Vo|).
func countSettled(m *core.Model) int {
	n := 0
	for oid := range m.NumObjects() {
		if m.SettledAt(oid) {
			n++
		}
	}
	return n
}

// defaultScores returns the cold-worker EAI score cache, computing it and
// coldRank on first use (goroutine-safe; the plan is shared by concurrent
// requests). Nil when the plan has no TDH model.
//
//tdh:mutator fills the lazy cold-worker cache exactly once behind sync.Once; no reader can observe a partial fill
func (p *Plan) defaultScores() *cow.Vec[float64] {
	if p.M == nil {
		return nil
	}
	p.eaiDefaultOnce.Do(func() {
		scores := p.scoreAll()
		p.eaiDefault, p.coldRank = cow.Paged(scores), rank(scores)
	})
	return &p.eaiDefault
}

// scoreAll evaluates the cold-worker EAI score of every object.
func (p *Plan) scoreAll() []float64 {
	scores := make([]float64, p.Idx.NumObjects())
	for oid := range scores {
		scores[oid], _ = eaiAt(p.M, oid, &p.defaultTab, float64(len(scores)))
	}
	return scores
}

// Prewarm fills the lazy parts of the plan (the cold-worker EAI score
// cache and its ranking) so no request pays the first-use cost. The server
// calls it from the pipeline goroutine right before publishing a snapshot.
func (p *Plan) Prewarm() { p.defaultScores() }

// ueaiBound is the Lemma 4.1 bound of object oid among nObj objects.
func ueaiBound(m *core.Model, oid int, nObj float64) float64 {
	return (1 - m.MaxConfidenceAt(oid)) / (nObj * (m.DAt(oid) + 1))
}

// foreignResult is the panic of NewPlan and Advance on a result whose rows
// are shaped by another index than the plan's: every object ID the plan
// hands out would address the wrong row.
const foreignResult = "assign: result rows are shaped by another index than the plan's"

// newPlan is the part of a plan every constructor shares: the snapshot it
// serves, the model behind it, and the ψ the cold-worker cache is valid for.
func newPlan(idx *data.Index, res *infer.Result) *Plan {
	if res.Rows.Index() != idx {
		panic(foreignResult)
	}
	m, _ := res.Rows.(*core.Model)
	var psi [3]float64
	if m != nil {
		psi = m.DefaultPsi()
	}
	return &Plan{Idx: idx, Res: res, M: m, d: res.Rows, defaultPsi: psi, defaultTab: core.NewWorkerTab(psi)}
}

// NewPlan precomputes the worker-independent assignment state for one
// inference result, whose rows must be shaped by idx (it panics otherwise).
// Cost: O(Σ|Vo|) for the confidence scans plus O(|O| log |O|) for the two
// rankings, one allocation per array and one sort per ranking — paid once
// per published fit, off the request path. The cold-worker scores and
// their ranking are lazy (Prewarm).
func NewPlan(idx *data.Index, res *infer.Result) *Plan {
	n := idx.NumObjects()
	p := newPlan(idx, res)
	maxMu, ent := make([]float64, n), make([]float64, n)
	for oid := range maxMu {
		mu := p.Row(oid)
		maxMu[oid], ent[oid] = maxOf(mu), entropy(mu)
	}
	p.maxMu, p.ent, p.entRank = cow.Paged(maxMu), cow.Paged(ent), rank(ent)

	if p.M == nil {
		return p
	}
	nObj := float64(n)
	ueai := make([]float64, n)
	for oid := range ueai {
		ueai[oid] = ueaiBound(p.M, oid, nObj)
	}
	p.ueai, p.ueaiRank = cow.Paged(ueai), rank(ueai)
	p.settled = countSettled(p.M)
	return p
}

// rank ranks objects 0..len(keys)-1 by keys.
func rank(keys []float64) cow.Ranking { return rerank(cow.Ranking{}, keys, 0) }

// Advance derives the plan for (idx, res) from this plan — the previous
// snapshot's — recomputing only the entries of the objects in touched and
// re-ranking only them, instead of NewPlan's full O(Σ|Vo| + |O| log |O|)
// rebuild. It is the publish-rate path of the crowd server: an incremental
// publish touches O(batch) objects.
//
// Cost. With the object count unchanged — every fold — the new plan clones
// the page tables of the score arrays (a slice header per 256 objects) and
// the chunk tables of the three rankings (entropy, UEAI bound, cold-worker
// score; one per ≤ 512 entries), copies the page each touched object lies
// in, once, and re-ranks the touched objects in one cow.Ranking.Update per
// ranking: every chunk that loses an old (key, ID) or gains a new one is
// rebuilt once, by one merge. That is at most O(|touched| · (page + chunk +
// log |O|)) and no allocation proportional to |O|. When the index grew,
// the 1/|O| factor of Lemma 4.1 moves every bound, so the score arrays are
// rebuilt (untouched confidences and entropies carried over, bounds and
// cold-worker scores recomputed) and every ranking goes through the
// ranking's bulk constructor again, seeded with the previous order: O(|O|),
// and rare — open-world growth, not the fold.
//
// Order contract. Every ranking is a strict total order — key descending,
// dense ID ascending on equal keys — so a ranking is a function of its keys
// alone: re-ranking the touched objects in place yields exactly the sequence
// a full sort of all keys would.
//
// The contract mirrors how the pipeline produces snapshots: idx is either
// the plan's own index or one derived from it by data.Index.Extend (dense
// IDs of untouched objects stable), res's confidence rows and model state
// for untouched objects are bit-identical to the previous result's, and
// touched lists every changed dense ID (IDs ≥ the previous object count are
// treated as touched regardless). Under that contract the advanced plan is
// exactly what NewPlan(idx, res) would build — same values, same ranking
// orders — which the server's equivalence suite pins.
//
// Like NewPlan it panics when res's rows are shaped by another index than
// idx. When a precondition fails (index shrank, model attached/detached —
// the cases where entries cannot be carried over) it falls back to NewPlan
// and reports advanced = false.
func (p *Plan) Advance(idx *data.Index, res *infer.Result, touched []int) (advanced *Plan, ok bool) {
	np := newPlan(idx, res)
	n := idx.NumObjects()
	nPrev := p.Idx.NumObjects()
	if n < nPrev || (np.M != nil) != (p.M != nil) {
		return NewPlan(idx, res), false
	}
	if idx != p.Idx {
		// Extend keeps the dense-ID prefix stable; a foreign index of the
		// same or larger size does not, and its entries cannot carry over.
		// The compares hit the pointer fast path for Extend-derived indexes,
		// which share the previous index's string headers.
		for oid := 0; oid < nPrev; oid++ {
			if idx.Objects[oid] != p.Idx.Objects[oid] {
				return NewPlan(idx, res), false
			}
		}
	}
	ts := normalizeTouched(touched, nPrev, n)
	if n > nPrev {
		np.grow(p, ts)
		return np, true
	}

	np.maxMu, np.ent = p.maxMu.Clone(), p.ent.Clone()
	moves := make([]cow.Rekey, len(ts))
	for i, oid := range ts {
		mu := np.Row(oid)
		e := entropy(mu)
		moves[i] = cow.Rekey{ID: int32(oid), Old: p.ent.At(oid), New: e}
		np.maxMu.Set(oid, maxOf(mu))
		np.ent.Set(oid, e)
	}
	np.entRank = p.entRank.Update(moves)
	m := np.M
	if m == nil {
		return np, true
	}
	nObj := float64(n)
	np.ueai, np.settled = p.ueai.Clone(), p.settled
	for i, oid := range ts {
		b := ueaiBound(m, oid, nObj)
		moves[i] = cow.Rekey{ID: int32(oid), Old: p.ueai.At(oid), New: b}
		np.ueai.Set(oid, b)
		if p.M.SettledAt(oid) {
			np.settled--
		}
		if m.SettledAt(oid) {
			np.settled++
		}
	}
	np.ueaiRank = p.ueaiRank.Update(moves)
	// Carry the cold-worker score cache and its ranking forward: untouched
	// objects score identically (same model rows, same |O|), so only
	// touched entries need the incremental-EM evaluation and a re-rank.
	// p.defaultScores() fills the previous cache if nothing ever had —
	// Advance runs in the pipeline goroutine, so that one-time cost stays
	// off the request path either way.
	if np.defaultPsi == p.defaultPsi {
		prev := p.defaultScores()
		scores := prev.Clone()
		for i, oid := range ts {
			score, _ := eaiAt(m, oid, &np.defaultTab, nObj)
			moves[i] = cow.Rekey{ID: int32(oid), Old: prev.At(oid), New: score}
			scores.Set(oid, score)
		}
		coldRank := p.coldRank.Update(moves)
		np.eaiDefaultOnce.Do(func() { np.eaiDefault, np.coldRank = scores, coldRank })
	}
	return np, true
}

// grow fills a plan advanced across index growth (Advance's n > nPrev case)
// from the previous plan p: the per-object arrays are rebuilt at the new
// size — confidences and entropies of untouched objects carried over, every
// Lemma 4.1 bound and cold-worker score recomputed under the new |O|, the
// settled objects counted afresh — and each ranking is rebuilt by
// cow.NewRanking from the previous ranking's order re-keyed, which is
// already sorted but for the touched and the new objects.
func (np *Plan) grow(p *Plan, ts []int) {
	n, nPrev := np.Idx.NumObjects(), p.Idx.NumObjects()
	maxMu := p.maxMu.AppendTo(make([]float64, 0, n))[:n]
	ent := p.ent.AppendTo(make([]float64, 0, n))[:n]
	for _, oid := range ts {
		mu := np.Row(oid)
		maxMu[oid], ent[oid] = maxOf(mu), entropy(mu)
	}
	np.maxMu, np.ent = cow.Paged(maxMu), cow.Paged(ent)
	np.entRank = rerank(p.entRank, ent, nPrev)
	if np.M == nil {
		return
	}
	nObj := float64(n)
	ueai := make([]float64, n)
	for oid := range ueai {
		ueai[oid] = ueaiBound(np.M, oid, nObj)
	}
	np.ueai = cow.Paged(ueai)
	np.ueaiRank = rerank(p.ueaiRank, ueai, nPrev)
	np.settled = countSettled(np.M)
	if np.defaultPsi == p.defaultPsi {
		// Same rule as the fold case: a plan derived in the pipeline
		// goroutine carries a filled cache, so no request pays the fill.
		// The previous plan's ranking seeds the new one's sort.
		p.defaultScores()
		scores := np.scoreAll()
		coldRank := rerank(p.coldRank, scores, nPrev)
		np.eaiDefaultOnce.Do(func() { np.eaiDefault, np.coldRank = cow.Paged(scores), coldRank })
	}
}

// rerank ranks objects 0..len(keys)-1 by keys, visiting them in prev's order
// (then the objects prev does not rank, IDs nPrev and up) so the bulk
// constructor's sort starts from a nearly sorted sequence.
func rerank(prev cow.Ranking, keys []float64, nPrev int) cow.Ranking {
	ranked := prev.AppendTo(make([]cow.Entry, 0, len(keys)))
	for i := range ranked {
		ranked[i].Key = keys[ranked[i].ID]
	}
	for oid := nPrev; oid < len(keys); oid++ {
		ranked = append(ranked, cow.Entry{Key: keys[oid], ID: int32(oid)})
	}
	return cow.NewRanking(ranked)
}

// normalizeTouched sorts and dedups the caller's touched IDs, drops
// out-of-range entries, and forces every ID the previous plan did not cover
// (fresh objects from index growth) to count as touched.
func normalizeTouched(touched []int, nPrev, n int) []int {
	out := make([]int, 0, len(touched)+n-nPrev)
	for _, t := range touched {
		if t >= 0 && t < nPrev {
			out = append(out, t)
		}
	}
	for oid := nPrev; oid < n; oid++ {
		out = append(out, oid)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// plan returns the Context's attached Plan when it matches the Context's
// snapshot, or builds a fresh one. The fallback keeps the name-keyed
// Assigner interface unchanged for callers that assign once per fitted
// model (crowd loop, experiments), where a per-call build costs no more
// than the heap-and-map setup it replaced. A STALE attached plan, though,
// is a threading regression on the server's request path — Context.
// PlanFallbacks makes it observable instead of just slow.
func (ctx *Context) plan() *Plan {
	if ctx.Plan != nil && ctx.Plan.Idx == ctx.Idx && ctx.Plan.Res == ctx.Res {
		return ctx.Plan
	}
	if ctx.Plan != nil && ctx.PlanFallbacks != nil {
		ctx.PlanFallbacks.Add(1)
	}
	return NewPlan(ctx.Idx, ctx.Res)
}

// workerIDs resolves each worker's dense ID in idx once (-1 for workers the
// index has never seen), so answered-set probes inside the scan loops are
// map-free.
func workerIDs(idx *data.Index, workers []string) []int {
	ids := make([]int, len(workers))
	for i, w := range workers {
		ids[i] = -1
		if id, ok := idx.WorkerID(w); ok {
			ids[i] = id
		}
	}
	return ids
}
