package assign

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/cow"
	"repro/internal/data"
	"repro/internal/infer"
)

// Plan is the worker-independent half of a task-assignment round,
// precomputed once per (Index, Result) pair for the assigner that reads it:
// confidence rows read by dense object ID, plus the rankings (parts) that
// assigner walks and no others — ME's entropy ranking and, when the result
// carries a TDH model, EAI's objects by decreasing Lemma 4.1 bound (the
// order Algorithm 1 scans) and by cold-worker score. PlanFor builds the set
// an assigner reads; NewPlan builds every part. A plan is its rankings: an
// entry carries its key, so the plan holds no per-object score array — a
// key it needs outside the walk it recomputes from the snapshot
// (entropyAt, boundAt, coldScoreAt) — and no count the rankings hold
// already (Settled reads the cold-worker ranking's −1 tail).
//
// The crowd server builds one Plan per published Snapshot for its
// campaign's assigner and attaches it to every assignment Context, so a
// /task request reads shared read-only state instead of an
// O(|O| log |O|) per-request heap-and-map rebuild: under EAI a worker at
// the prior-mean ψ reads the head of the cold-worker score ranking
// (coldTopK), and a worker with a fitted ψ scores only the objects that
// ranking holds unsettled (fittedTopK). A Plan is immutable
// after it is built or advanced: assigners only read it, which is what lets
// concurrent /task requests share one.
//
// Every ranking is persistent (internal/cow): a table of sorted chunks of
// at most 512 entries, so the plan Advance derives shares all of it with
// this one except the chunks the touched objects' entries move out of or
// into.
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

	// entRank ranks every object by decreasing entropy, dense ID ascending
	// on ties (the name order for a built index; Index.Extend appends new
	// objects after it) — ME's ranking, shared by every worker (part
	// entRanking).
	entRank cow.Ranking

	// ueaiRank ranks every object by decreasing Lemma 4.1 bound, kept as
	// |O|·UEAI(o) = (1-maxμ)/(D_o+1) — the order Algorithm 1 pops them, each
	// entry carrying its bound (part bounds). Zero when M is nil. Every EAI
	// key of a plan, here and in coldRank, is |O| times the paper's value
	// (Eq. 14's 1/|O| is a uniform positive factor and orders nothing), so
	// growing the index moves no key; a value is divided by |O| only where
	// it leaves the package (UEAIMax, EAI.EstimateImprovement).
	ueaiRank cow.Ranking

	// The served EAI plan's cold-worker cache (part coldCache), zero when M
	// is nil. coldRank ranks every object by EAI(w, o) for a worker at the
	// prior-mean ψ — the score EVERY cold worker shares, since a worker with
	// no answer history sits exactly at the prior — score descending, ID
	// ascending on ties, with a settled object (core.Model.SettledAt) keyed
	// −1 (coldScoreAt): its non-negative prefix is exactly the unsettled
	// objects. It turns a cold /task request from Algorithm 1's walk into a
	// read of the ranking's head, O(K) entries (coldTopK), and a returning
	// worker's into EAI evaluations of that prefix alone (fittedTopK): a
	// settled object scores 0 for every ψ. Its −1 tail is the settled
	// objects, which Settled counts. defaultPsi tags the ψ the cache is
	// valid for, and defaultTab is its claim table, built once per plan for
	// the scores.
	coldRank   cow.Ranking
	defaultPsi [3]float64
	defaultTab core.WorkerTab
}

// parts is a set of the rankings a plan can hold. Each assigner reads a
// fixed set; a plan is built for one set and holds nothing outside it, so a
// campaign's publishes maintain only what its assigner reads. MB and QASCA
// read confidence rows alone, which every plan serves.
type parts uint8

const (
	// entRanking is entRank: ME.
	entRanking parts = 1 << iota
	// bounds is ueaiRank: every EAI call.
	bounds
	// coldCache is coldRank: the served EAI plan's closed-form one-worker
	// /task and, off its −1 tail, its settled-objects gauge. Its closed form
	// reads the bounds, so a set holding it holds bounds too.
	coldCache

	// eaiServed is what a campaign serving EAI publishes. A per-call EAI
	// plan is bounds alone: filling its cold cache would evaluate EAI for
	// every object up front, defeating the very pruning Lemma 4.1 provides —
	// and the Figure 13 ablation that measures it.
	eaiServed = bounds | coldCache
	allParts  = entRanking | bounds | coldCache
)

// Row is the confidence row of object oid (nil when the result has none),
// read-only.
func (p *Plan) Row(oid int) []float64 { return p.d.Row(oid) }

// entropyAt is object oid's entropy under the plan's snapshot: ME's key.
func (p *Plan) entropyAt(oid int) float64 { return entropy(p.Row(oid)) }

// boundAt is object oid's Lemma 4.1 bound times |O| under the plan's
// snapshot: the key of the UEAI ranking. It needs the model.
func (p *Plan) boundAt(oid int) float64 {
	return (1 - p.M.MaxConfidenceAt(oid)) / (p.M.DAt(oid) + 1)
}

// coldScoreAt is the key of object oid in the cold-worker ranking under the
// plan's snapshot: its EAI score times |O| for a worker at the prior-mean
// ψ, or −1 when the object is settled (its score is 0 for every ψ). It
// needs the model and a plan holding the cold cache (defaultTab).
func (p *Plan) coldScoreAt(oid int) float64 {
	score, settled := eaiAt(p.M, oid, &p.defaultTab)
	if settled {
		return -1
	}
	return score
}

// AppendParts appends every value the plan holds besides the confidence
// rows to dst: each ranking's entries in rank order as key and ID (entropy,
// UEAI, cold-worker) — two values per ranked object. A part the plan does
// not hold appends nothing. These are the values Advance rebuilds chunk by
// chunk, so a copy taken at publish is what a check that a served plan is
// never mutated compares against.
func (p *Plan) AppendParts(dst []float64) []float64 {
	for _, r := range []cow.Ranking{p.entRank, p.ueaiRank, p.coldRank} {
		for _, chunk := range r.Chunks() {
			for _, e := range chunk {
				dst = append(dst, e.Key, float64(e.ID))
			}
		}
	}
	return dst
}

// UEAIMax is the largest Lemma 4.1 bound of the plan — the head of the UEAI
// ranking, divided by |O|: no task the plan can hand out adds more than this
// to the expected accuracy. 0 when the plan holds no bounds (it serves
// another assigner than EAI, or the result carries no TDH model) or ranks no
// object.
func (p *Plan) UEAIMax() float64 {
	if chunks := p.ueaiRank.Chunks(); len(chunks) > 0 {
		return chunks[0][0].Key / float64(p.Idx.NumObjects())
	}
	return 0
}

// Settled is the number of objects the no-flip certificate settles
// (core.Model.SettledAt): no single further answer moves their truth before
// the next refit. Only a served EAI plan counts them (PlanFor with EAI, or
// NewPlan); it is 0 on any other plan and when the result carries no TDH
// model.
//
// coldScoreAt keys exactly the settled objects −1 and every other object
// ≥ 0, so they are the cold-worker ranking's negative tail: Settled counts
// it from the last chunk back, O(1) per chunk of it, binary-searching the
// chunk it starts in.
func (p *Plan) Settled() int {
	n := 0
	for _, c := range slices.Backward(p.coldRank.Chunks()) {
		if c[0].Key >= 0 {
			return n + len(c) - sort.Search(len(c), func(j int) bool { return c[j].Key < 0 })
		}
		n += len(c)
	}
	return n
}

// rank ranks every object of the plan's index by key.
func (p *Plan) rank(key func(oid int) float64) cow.Ranking {
	entries := make([]cow.Entry, p.Idx.NumObjects())
	for oid := range entries {
		entries[oid] = cow.Entry{Key: key(oid), ID: int32(oid)}
	}
	return cow.NewRanking(entries)
}

// Prewarm does nothing: a plan holds its cold-worker cache from the moment
// it is built. It is kept for the benchmark harness's layer probe
// (benchmark/layers.go), which still times it, and goes with that call.
func (p *Plan) Prewarm() {}

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
// reads and no others. For EAI that is the UEAI ranking and the cold-worker
// ranking; for ME the entropy ranking; for MB and QASCA, which read
// confidence rows alone, none. An assigner this package does not define
// gets every part. res's rows must be shaped by idx (it panics otherwise).
func PlanFor(asg Assigner, idx *data.Index, res *infer.Result) *Plan {
	reads := allParts
	switch asg.(type) {
	case EAI:
		reads = eaiServed
	case ME:
		reads = entRanking
	case MB, QASCA:
		reads = 0
	}
	return build(idx, res, reads)
}

// build computes the parts in reads from scratch. Cost: O(Σ|Vo|) per key
// scan (entropy, bound) and O(|O| log |O|) per ranking, one sort per
// ranking, plus |O| cold-worker EAI evaluations for a cold cache — paid
// once per published fit, off the request path.
func build(idx *data.Index, res *infer.Result, reads parts) *Plan {
	p := newPlan(idx, res, reads)
	if reads&entRanking != 0 {
		p.entRank = p.rank(p.entropyAt)
	}
	if p.M == nil {
		return p
	}
	if reads&bounds != 0 {
		p.ueaiRank = p.rank(p.boundAt)
	}
	if reads&coldCache != 0 {
		p.coldRank = p.rank(p.coldScoreAt)
	}
	return p
}

// Advance derives the plan for (idx, res) from this plan — the previous
// snapshot's — re-ranking only the objects in touched and inserting the
// objects the index grew by, instead of a full O(Σ|Vo| + |O| log |O|)
// rebuild. The derived plan holds the same parts as this one. It is the
// publish-rate path of the crowd server: an incremental publish touches
// O(batch) objects, and an open-world one adds a few.
//
// Cost. Each ranking the plan holds moves its touched objects, from the key
// under this plan's snapshot to the key under the new one, and takes in the
// new objects (IDs ≥ the previous object count) at their keys, in one
// cow.Ranking.Update: every chunk that loses an old (key, ID) or gains a
// new one is rebuilt once, by one merge, and the rest of the chunk table is
// shared. No key carries Eq. 14's 1/|O| (see ueaiRank), so growth moves no
// untouched key. The old key is recomputed rather than stored: a fold or a
// growth conditions a copy of the model and never writes the state this
// plan reads, so entropyAt, boundAt and coldScoreAt on this plan return, bit
// for bit, the keys its rankings hold. That is O(|touched ∪ new| · (key +
// chunk + log |O|)) per ranking and no allocation proportional to |O|; the
// check that a derived index kept the object names is O(|O|) compares on
// the pointer fast path.
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
// touched lists every changed dense ID below the previous object count
// (IDs from it up are inserted regardless). Under that contract the advanced
// plan is exactly what a build of the same parts for (idx, res) would be —
// same keys, same ranking orders — which the server's equivalence suite
// pins.
//
// It panics when res's rows are shaped by another index than idx. When a
// precondition fails (index shrank, model attached/detached, prior-mean ψ
// moved — the cases where entries cannot be carried over) it builds the
// same parts from scratch and reports advanced = false.
func (p *Plan) Advance(idx *data.Index, res *infer.Result, touched []int) (advanced *Plan, ok bool) {
	np := newPlan(idx, res, p.reads)
	n := idx.NumObjects()
	nPrev := p.Idx.NumObjects()
	if n < nPrev || (np.M != nil) != (p.M != nil) || np.defaultPsi != p.defaultPsi {
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
	ts := normalizeTouched(touched, nPrev)
	moves, added := make([]cow.Rekey, len(ts)), make([]cow.Entry, n-nPrev)
	// rekey derives the ranking r of p by key for np.
	rekey := func(r cow.Ranking, key func(*Plan, int) float64) cow.Ranking {
		for i, oid := range ts {
			moves[i] = cow.Rekey{ID: int32(oid), Old: key(p, oid), New: key(np, oid)}
		}
		for i := range added {
			added[i] = cow.Entry{Key: key(np, nPrev+i), ID: int32(nPrev + i)}
		}
		return r.Update(moves, added)
	}
	if np.reads&entRanking != 0 {
		np.entRank = rekey(p.entRank, (*Plan).entropyAt)
	}
	if np.M == nil {
		return np, true
	}
	if np.reads&bounds != 0 {
		np.ueaiRank = rekey(p.ueaiRank, (*Plan).boundAt)
	}
	if np.reads&coldCache != 0 {
		np.coldRank = rekey(p.coldRank, (*Plan).coldScoreAt)
	}
	return np, true
}

// normalizeTouched sorts and dedups the caller's touched IDs and drops the
// entries outside the previous plan's objects 0..nPrev-1.
func normalizeTouched(touched []int, nPrev int) []int {
	out := make([]int, 0, len(touched))
	for _, t := range touched {
		if t >= 0 && t < nPrev {
			out = append(out, t)
		}
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
