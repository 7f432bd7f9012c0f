package assign

import (
	"slices"

	"repro/internal/core"
	"repro/internal/cow"
	"repro/internal/data"
	"repro/internal/infer"
)

// Plan is the worker-independent half of a task-assignment round,
// precomputed once per (Index, Result) pair for the assigner that reads it:
// confidence rows read by dense object ID, plus the derived structures
// (parts) that assigner reads and no others — QASCA's per-object max
// confidence, MB's entropies, ME's entropy ranking, and, when the result
// carries a TDH model, EAI's Lemma 4.1 bounds in Algorithm 1's
// decreasing-bound scan order. PlanFor builds the set an assigner reads;
// NewPlan builds every part.
//
// The crowd server builds one Plan per published Snapshot for its
// campaign's assigner and attaches it to every assignment Context, so a
// /task request reads shared read-only state instead of an
// O(|O| log |O|) per-request heap-and-map rebuild: under EAI a worker with
// a fitted ψ walks the UEAI order, and a worker at the prior-mean ψ reads
// the head of the cold-worker score ranking (coldTopK). A Plan is immutable
// after it is built or advanced: assigners only read it, which is what lets
// concurrent /task requests share one.
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

	// reads is the part set the plan was built for. It holds exactly these
	// parts (the model-backed ones only when M is set), and Advance carries
	// them, and only them, to the plan it derives.
	reads parts
	// d is Res.Rows, shaped by Idx: the plan reads confidence rows (Row)
	// from it and holds none of its own, so it never pins memory of any
	// result but the one it serves.
	d infer.Dense
	// maxMu and ent are the per-object max confidence (part maxConf) and
	// Shannon entropy (part entropies).
	maxMu, ent cow.Vec[float64]

	// entRank ranks every object by decreasing entropy, dense ID ascending
	// on ties (the name order for a built index; Index.Extend appends new
	// objects after it) — ME's ranking, shared by every worker (part
	// entRanking).
	entRank cow.Ranking

	// EAI's bounds (part bounds), zero when M is nil: ueai is the Lemma 4.1
	// bound (1-maxμ)/(|O|·(D_o+1)) per object; ueaiRank ranks every object
	// by decreasing bound — the order Algorithm 1 pops them, each entry
	// carrying its bound inline.
	ueai     cow.Vec[float64]
	ueaiRank cow.Ranking

	// The served EAI plan's cold-worker cache (part coldCache), zero when M
	// is nil. eaiDefault is EAI(w, o) per object for a worker at the
	// prior-mean ψ — the score EVERY cold worker shares, since a worker with
	// no answer history sits exactly at the prior — and coldRank ranks every
	// object by it (score descending, ID ascending on ties). Together they
	// turn a cold /task request from Algorithm 1's walk into a read of the
	// ranking's head, O(K) entries (coldTopK); workers with fitted ψ still
	// evaluate per call. defaultPsi tags the ψ the cache is valid for, and
	// defaultTab is its claim table, built once per plan for the fill and
	// for Advance's rescoring. settled counts the objects the no-flip
	// certificate settles (core.Model.SettledAt).
	eaiDefault cow.Vec[float64]
	coldRank   cow.Ranking
	defaultPsi [3]float64
	defaultTab core.WorkerTab
	settled    int
}

// parts is a set of the derived structures a plan can hold. Each assigner
// reads a fixed set; a plan is built for one set and holds nothing outside
// it, so a campaign's publishes maintain only what its assigner reads.
type parts uint8

const (
	// maxConf is maxMu: QASCA.
	maxConf parts = 1 << iota
	// entropies is ent: MB.
	entropies
	// entRanking is entRank: ME. Its keys are ent, so a set holding it
	// holds entropies too.
	entRanking
	// bounds is ueai and ueaiRank: every EAI call.
	bounds
	// coldCache is eaiDefault, coldRank and settled: the served EAI plan's
	// closed-form cold /task and its settled-objects gauge. Its closed form
	// reads the bounds, so a set holding it holds bounds too.
	coldCache

	// eaiServed is what a campaign serving EAI publishes. A per-call EAI
	// plan is bounds alone: filling its cold cache would evaluate EAI for
	// every object up front, defeating the very pruning Lemma 4.1 provides —
	// and the Figure 13 ablation that measures it.
	eaiServed = bounds | coldCache
	meParts   = entropies | entRanking
	allParts  = maxConf | entropies | entRanking | bounds | coldCache
)

// Row is the confidence row of object oid (nil when the result has none),
// read-only. MaxMu and Ent are its max and its entropy, read from the
// plan's arrays: MaxMu on a plan holding max confidences (QASCA's,
// NewPlan's), Ent on one holding entropies (MB's, ME's, NewPlan's).
func (p *Plan) Row(oid int) []float64 { return p.d.Row(oid) }

func (p *Plan) MaxMu(oid int) float64 { return p.maxMu.At(oid) }
func (p *Plan) Ent(oid int) float64   { return p.ent.At(oid) }

// AppendParts appends every value the plan holds besides the confidence
// rows to dst: the per-object arrays of its parts in object order (max
// confidence, entropy, UEAI bound, cold-worker score), then each ranking's
// entries in rank order as key and ID (entropy, UEAI, cold-worker), then
// the settled count. A part the plan does not hold appends nothing. These
// are the values Advance clones and writes, so a copy taken at publish is
// what a check that a served plan is never mutated compares against.
func (p *Plan) AppendParts(dst []float64) []float64 {
	for _, v := range []*cow.Vec[float64]{&p.maxMu, &p.ent, &p.ueai, &p.eaiDefault} {
		dst = v.AppendTo(dst)
	}
	for _, r := range []cow.Ranking{p.entRank, p.ueaiRank, p.coldRank} {
		for _, chunk := range r.Chunks() {
			for _, e := range chunk {
				dst = append(dst, e.Key, float64(e.ID))
			}
		}
	}
	return append(dst, float64(p.settled))
}

// UEAIMax is the largest Lemma 4.1 bound of the plan — the head of the UEAI
// ranking: no task the plan can hand out adds more than this to the expected
// accuracy. 0 when the plan holds no bounds (it serves another assigner than
// EAI, or the result carries no TDH model) or ranks no object.
func (p *Plan) UEAIMax() float64 {
	if chunks := p.ueaiRank.Chunks(); len(chunks) > 0 {
		return chunks[0][0].Key
	}
	return 0
}

// Settled is the number of objects the no-flip certificate settles
// (core.Model.SettledAt): no single further answer moves their truth before
// the next refit. Only a served EAI plan counts them (PlanFor with EAI, or
// NewPlan); it is 0 on any other plan and when the result carries no TDH
// model.
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

// each evaluates f at every object of the plan's index.
func (p *Plan) each(f func(oid int) float64) []float64 {
	out := make([]float64, p.Idx.NumObjects())
	for oid := range out {
		out[oid] = f(oid)
	}
	return out
}

// scoreAll evaluates the cold-worker EAI score of every object.
func (p *Plan) scoreAll() []float64 {
	nObj := float64(p.Idx.NumObjects())
	return p.each(func(oid int) float64 {
		score, _ := eaiAt(p.M, oid, &p.defaultTab, nObj)
		return score
	})
}

// Prewarm does nothing: a plan holds its cold-worker cache from the moment
// it is built. It is kept for the benchmark harness's layer probe
// (benchmark/layers.go), which still times it, and goes with that call.
func (p *Plan) Prewarm() {}

// ueaiBound is the Lemma 4.1 bound of object oid among nObj objects.
func ueaiBound(m *core.Model, oid int, nObj float64) float64 {
	return (1 - m.MaxConfidenceAt(oid)) / (nObj * (m.DAt(oid) + 1))
}

// foreignResult is the panic of every plan constructor and of Advance on a
// result whose rows are shaped by another index than the plan's: every
// object ID the plan hands out would address the wrong row.
const foreignResult = "assign: result rows are shaped by another index than the plan's"

// newPlan is the part of a plan every constructor shares: the snapshot it
// serves, the model behind it, the part set, and — for a cold cache — the
// ψ the cache is valid for.
func newPlan(idx *data.Index, res *infer.Result, reads parts) *Plan {
	if res.Rows.Index() != idx {
		panic(foreignResult)
	}
	m, _ := res.Rows.(*core.Model)
	var psi [3]float64
	var tab core.WorkerTab
	if m != nil && reads&coldCache != 0 {
		psi = m.DefaultPsi()
		tab = core.NewWorkerTab(psi)
	}
	return &Plan{Idx: idx, Res: res, M: m, reads: reads, d: res.Rows, defaultPsi: psi, defaultTab: tab}
}

// NewPlan precomputes every part of the worker-independent assignment state
// for one inference result, whose rows must be shaped by idx (it panics
// otherwise): the plan any assigner can read. A campaign builds only its
// assigner's parts (PlanFor).
func NewPlan(idx *data.Index, res *infer.Result) *Plan { return build(idx, res, allParts) }

// PlanFor builds the plan a campaign serving asg publishes: the parts asg
// reads and no others. For EAI that is the bounds with their scan order,
// the cold-worker cache and the settled count; for ME the entropy ranking;
// for MB the entropies; for QASCA the max confidences. An assigner this
// package does not define gets every part. res's rows must be shaped by idx
// (it panics otherwise).
func PlanFor(asg Assigner, idx *data.Index, res *infer.Result) *Plan {
	reads := allParts
	switch asg.(type) {
	case EAI:
		reads = eaiServed
	case ME:
		reads = meParts
	case MB:
		reads = entropies
	case QASCA:
		reads = maxConf
	}
	return build(idx, res, reads)
}

// build computes the parts in reads from scratch. Cost: O(Σ|Vo|) per
// confidence scan (max, entropy, bound) and O(|O| log |O|) per ranking, one
// allocation per array and one sort per ranking, plus |O| cold-worker EAI
// evaluations for a cold cache — paid once per published fit, off the
// request path.
func build(idx *data.Index, res *infer.Result, reads parts) *Plan {
	p := newPlan(idx, res, reads)
	if reads&maxConf != 0 {
		p.maxMu = cow.Paged(p.each(func(oid int) float64 { return maxOf(p.Row(oid)) }))
	}
	if reads&entropies != 0 {
		ent := p.each(func(oid int) float64 { return entropy(p.Row(oid)) })
		p.ent = cow.Paged(ent)
		if reads&entRanking != 0 {
			p.entRank = rank(ent)
		}
	}
	if p.M == nil {
		return p
	}
	if reads&bounds != 0 {
		nObj := float64(idx.NumObjects())
		ueai := p.each(func(oid int) float64 { return ueaiBound(p.M, oid, nObj) })
		p.ueai, p.ueaiRank = cow.Paged(ueai), rank(ueai)
	}
	if reads&coldCache != 0 {
		scores := p.scoreAll()
		p.eaiDefault, p.coldRank = cow.Paged(scores), rank(scores)
		p.settled = countSettled(p.M)
	}
	return p
}

// rank ranks objects 0..len(keys)-1 by keys.
func rank(keys []float64) cow.Ranking { return rerank(cow.Ranking{}, keys, 0) }

// Advance derives the plan for (idx, res) from this plan — the previous
// snapshot's — recomputing only the entries of the objects in touched and
// re-ranking only them, instead of a full O(Σ|Vo| + |O| log |O|) rebuild.
// The derived plan holds the same parts as this one. It is the
// publish-rate path of the crowd server: an incremental publish touches
// O(batch) objects.
//
// Cost. With the object count unchanged — every fold — the new plan clones
// the page tables of the score arrays it holds (a slice header per 256
// objects) and the chunk tables of its rankings (one per ≤ 512 entries),
// copies the page each touched object lies in, once, and re-ranks the
// touched objects in one cow.Ranking.Update per ranking: every chunk that
// loses an old (key, ID) or gains a new one is rebuilt once, by one merge.
// That is at most O(|touched| · (page + chunk + log |O|)) per part and no
// allocation proportional to |O|. When the index grew, the 1/|O| factor of
// Lemma 4.1 moves every bound, so the score arrays are rebuilt (untouched
// confidences and entropies carried over, bounds and cold-worker scores
// recomputed) and every ranking goes through the ranking's bulk
// constructor again, seeded with the previous order: O(|O|), and rare —
// open-world growth, not the fold.
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
// exactly what a build of the same parts for (idx, res) would be — same
// values, same ranking orders — which the server's equivalence suite pins.
//
// It panics when res's rows are shaped by another index than idx. When a
// precondition fails (index shrank, model attached/detached — the cases
// where entries cannot be carried over) it builds the same parts from
// scratch and reports advanced = false.
func (p *Plan) Advance(idx *data.Index, res *infer.Result, touched []int) (advanced *Plan, ok bool) {
	np := newPlan(idx, res, p.reads)
	n := idx.NumObjects()
	nPrev := p.Idx.NumObjects()
	if n < nPrev || (np.M != nil) != (p.M != nil) {
		return build(idx, res, p.reads), false
	}
	if idx != p.Idx {
		// Extend keeps the dense-ID prefix stable; a foreign index of the
		// same or larger size does not, and its entries cannot carry over.
		// The compares hit the pointer fast path for Extend-derived indexes,
		// which share the previous index's string headers.
		for oid := 0; oid < nPrev; oid++ {
			if idx.Objects[oid] != p.Idx.Objects[oid] {
				return build(idx, res, p.reads), false
			}
		}
	}
	ts := normalizeTouched(touched, nPrev, n)
	if n > nPrev {
		np.grow(p, ts)
		return np, true
	}

	reads := np.reads
	moves := make([]cow.Rekey, len(ts))
	if reads&maxConf != 0 {
		np.maxMu = p.maxMu.Clone()
		for _, oid := range ts {
			np.maxMu.Set(oid, maxOf(np.Row(oid)))
		}
	}
	if reads&entropies != 0 {
		np.ent = p.ent.Clone()
		for i, oid := range ts {
			e := entropy(np.Row(oid))
			moves[i] = cow.Rekey{ID: int32(oid), Old: p.ent.At(oid), New: e}
			np.ent.Set(oid, e)
		}
		if reads&entRanking != 0 {
			np.entRank = p.entRank.Update(moves)
		}
	}
	m := np.M
	if m == nil {
		return np, true
	}
	nObj := float64(n)
	if reads&bounds != 0 {
		np.ueai = p.ueai.Clone()
		for i, oid := range ts {
			b := ueaiBound(m, oid, nObj)
			moves[i] = cow.Rekey{ID: int32(oid), Old: p.ueai.At(oid), New: b}
			np.ueai.Set(oid, b)
		}
		np.ueaiRank = p.ueaiRank.Update(moves)
	}
	if reads&coldCache == 0 {
		return np, true
	}
	np.settled = p.settled
	for _, oid := range ts {
		if p.M.SettledAt(oid) {
			np.settled--
		}
		if m.SettledAt(oid) {
			np.settled++
		}
	}
	if np.defaultPsi != p.defaultPsi {
		// Every cold-worker score moved; the previous ranking only seeds
		// the sort.
		scores := np.scoreAll()
		np.eaiDefault, np.coldRank = cow.Paged(scores), rerank(p.coldRank, scores, n)
		return np, true
	}
	// Untouched objects score identically (same model rows, same |O|, same
	// ψ), so only touched entries need the incremental-EM evaluation and a
	// re-rank.
	np.eaiDefault = p.eaiDefault.Clone()
	for i, oid := range ts {
		score, _ := eaiAt(m, oid, &np.defaultTab, nObj)
		moves[i] = cow.Rekey{ID: int32(oid), Old: p.eaiDefault.At(oid), New: score}
		np.eaiDefault.Set(oid, score)
	}
	np.coldRank = p.coldRank.Update(moves)
	return np, true
}

// grow fills a plan advanced across index growth (Advance's n > nPrev case)
// from the previous plan p, part by part: the per-object arrays are rebuilt
// at the new size — confidences and entropies of untouched objects carried
// over, every Lemma 4.1 bound and cold-worker score recomputed under the
// new |O|, the settled objects counted afresh — and each ranking is rebuilt
// by cow.NewRanking from the previous ranking's order re-keyed, which is
// already sorted but for the touched and the new objects.
func (np *Plan) grow(p *Plan, ts []int) {
	n, nPrev := np.Idx.NumObjects(), p.Idx.NumObjects()
	// carried is prev at the new size, its touched entries recomputed by f.
	carried := func(prev cow.Vec[float64], f func([]float64) float64) []float64 {
		out := prev.AppendTo(make([]float64, 0, n))[:n]
		for _, oid := range ts {
			out[oid] = f(np.Row(oid))
		}
		return out
	}
	if np.reads&maxConf != 0 {
		np.maxMu = cow.Paged(carried(p.maxMu, maxOf))
	}
	if np.reads&entropies != 0 {
		ent := carried(p.ent, entropy)
		np.ent = cow.Paged(ent)
		if np.reads&entRanking != 0 {
			np.entRank = rerank(p.entRank, ent, nPrev)
		}
	}
	if np.M == nil {
		return
	}
	if np.reads&bounds != 0 {
		nObj := float64(n)
		ueai := np.each(func(oid int) float64 { return ueaiBound(np.M, oid, nObj) })
		np.ueai, np.ueaiRank = cow.Paged(ueai), rerank(p.ueaiRank, ueai, nPrev)
	}
	if np.reads&coldCache != 0 {
		scores := np.scoreAll()
		np.eaiDefault, np.coldRank = cow.Paged(scores), rerank(p.coldRank, scores, nPrev)
		np.settled = countSettled(np.M)
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
// snapshot and holds the parts the caller reads, or builds exactly those
// parts. The fallback keeps the name-keyed Assigner interface unchanged for
// callers that assign once per fitted model (crowd loop, experiments),
// where a per-call build costs no more than the heap-and-map setup it
// replaced. A STALE attached plan, though — or one built for another
// assigner — is a threading regression on the server's request path;
// Context.PlanFallbacks makes it observable instead of just slow.
func (ctx *Context) plan(reads parts) *Plan {
	if p := ctx.Plan; p != nil && p.Idx == ctx.Idx && p.Res == ctx.Res && p.reads&reads == reads {
		return p
	}
	if ctx.Plan != nil && ctx.PlanFallbacks != nil {
		ctx.PlanFallbacks.Add(1)
	}
	return build(ctx.Idx, ctx.Res, reads)
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
