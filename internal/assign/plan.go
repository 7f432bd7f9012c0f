package assign

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/infer"
)

// Plan is the worker-independent half of a task-assignment round,
// precomputed once per (Index, Result) pair: per-object confidence rows,
// max-confidence and entropy keyed by dense object ID, ME's entropy
// ranking, and — when the result carries a TDH model — the UEAI bounds of
// Lemma 4.1 with the decreasing-bound scan order of Algorithm 1.
//
// The crowd server builds one Plan per published Snapshot and attaches it
// to every assignment Context, so a cold-worker /task request is a bounded
// scan over shared read-only arrays instead of an O(|O| log |O|) per-request
// heap-and-map rebuild. A Plan is immutable after NewPlan: assigners only
// read it, which is what lets concurrent /task requests share one.
type Plan struct {
	// Idx and Res identify the snapshot the plan was computed from;
	// assigners rebuild the plan when either differs from their Context.
	Idx *data.Index
	Res *infer.Result
	// M is the TDH model behind Res, nil for non-TDH inferencers (EAI
	// requires it; QASCA/ME/MB run without).
	M *core.Model

	// Mu[oid] aliases the result's confidence row of dense object ID oid (nil
	// when the inferencer published no row) — the sealed model's own row array
	// when the result is a view (Res.Rows), so a plan never pins rows of any
	// model but its own; MaxMu and Ent are the per-object max confidence and
	// Shannon entropy.
	Mu    [][]float64
	MaxMu []float64
	Ent   []float64

	// entOrder ranks object IDs by decreasing entropy (ID-ascending on
	// ties, which is name-ascending since Idx.Objects is sorted) — ME's
	// ranking, shared by every worker.
	entOrder []int32

	// EAI precompute, nil when M is nil. modelOid maps dense IDs of Idx to
	// dense IDs of M.Idx (-1 when the fitted model lags a freshly rebuilt
	// index and does not know the object); ueai is the Lemma 4.1 bound
	// (1-maxμ)/(|O|·(D_o+1)) per object; ueaiOrder lists model-known
	// objects by decreasing bound — the order Algorithm 1 pops them.
	modelOid  []int32
	ueai      []float64
	ueaiOrder []ueaiPlanEntry

	// eaiDefault[oid] is EAI(w, o) for a worker at the prior-mean ψ — the
	// score EVERY cold worker shares, since a worker with no answer history
	// sits exactly at the prior. It turns a cold /task request from |O|
	// incremental-EM evaluations into |O| array reads; workers with fitted
	// ψ still evaluate per call. Filled on first use behind a sync.Once
	// (callers without cold workers never pay for it); the server prewarms
	// it at publish time so no request bears the fill. defaultPsi tags the
	// ψ the cache is valid for.
	eaiDefaultOnce sync.Once
	eaiDefault     []float64
	defaultPsi     [3]float64
}

// defaultScores returns the cold-worker EAI score cache, computing it on
// first use (goroutine-safe; the plan is shared by concurrent requests).
// Nil when the plan has no TDH model.
//
//tdh:mutator fills the lazy cold-worker cache exactly once behind sync.Once; no reader can observe a partial fill
func (p *Plan) defaultScores() []float64 {
	if p.M == nil {
		return nil
	}
	p.eaiDefaultOnce.Do(func() {
		n := len(p.modelOid)
		nObj := float64(n)
		scores := make([]float64, n)
		for oid := 0; oid < n; oid++ {
			scores[oid] = eaiAt(p.M, int(p.modelOid[oid]), p.defaultPsi, nObj)
		}
		p.eaiDefault = scores
	})
	return p.eaiDefault
}

// Prewarm fills the lazy parts of the plan (the cold-worker EAI score
// cache) so no request pays the first-use cost. The server calls it from
// the pipeline goroutine right before publishing a snapshot.
func (p *Plan) Prewarm() { p.defaultScores() }

// ueaiPlanEntry is one slot of the precomputed UEAI scan order.
type ueaiPlanEntry struct {
	ub  float64
	oid int32
}

// NewPlan precomputes the worker-independent assignment state for one
// inference result. Cost: O(Σ|Vo|) for the confidence scans plus
// O(|O| log |O|) for the two rankings — paid once per published snapshot,
// off the request path.
func NewPlan(idx *data.Index, res *infer.Result) *Plan {
	n := idx.NumObjects()
	p := &Plan{
		Idx:   idx,
		Res:   res,
		Mu:    res.Rows(idx),
		MaxMu: make([]float64, n),
		Ent:   make([]float64, n),
	}
	if p.Mu == nil {
		p.Mu = make([][]float64, n)
		for oid := range p.Mu {
			p.Mu[oid] = res.ConfidenceAt(idx, oid)
		}
	}
	for oid, mu := range p.Mu {
		p.MaxMu[oid] = maxOf(mu)
		p.Ent[oid] = entropy(mu)
	}
	p.entOrder = make([]int32, n)
	for i := range p.entOrder {
		p.entOrder[i] = int32(i)
	}
	sort.Slice(p.entOrder, func(i, j int) bool {
		a, b := p.entOrder[i], p.entOrder[j]
		if p.Ent[a] != p.Ent[b] {
			return p.Ent[a] > p.Ent[b]
		}
		return a < b
	})

	m, ok := res.Model.(*core.Model)
	if !ok {
		return p
	}
	p.M = m
	nObj := float64(n)
	p.modelOid = make([]int32, n)
	p.ueai = make([]float64, n)
	p.ueaiOrder = make([]ueaiPlanEntry, 0, n)
	sameIdx := m.Idx == idx
	for oid := 0; oid < n; oid++ {
		moid := oid
		if !sameIdx {
			id, known := m.Idx.ObjectID(idx.Objects[oid])
			if !known {
				p.modelOid[oid] = -1
				continue // unknown to the fitted model; skip until refit
			}
			moid = id
		}
		p.modelOid[oid] = int32(moid)
		b := (1 - m.MaxConfidenceAt(moid)) / (nObj * (m.D[moid] + 1))
		p.ueai[oid] = b
		p.ueaiOrder = append(p.ueaiOrder, ueaiPlanEntry{b, int32(oid)})
	}
	sort.Slice(p.ueaiOrder, func(i, j int) bool {
		if p.ueaiOrder[i].ub != p.ueaiOrder[j].ub {
			return p.ueaiOrder[i].ub > p.ueaiOrder[j].ub
		}
		return p.ueaiOrder[i].oid < p.ueaiOrder[j].oid
	})
	p.defaultPsi = m.DefaultPsi()
	return p
}

// Advance derives the plan for (idx, res) from this plan — the previous
// snapshot's — recomputing only the entries of the objects in touched and
// merge-repairing the rankings around them, instead of NewPlan's full
// O(Σ|Vo| + |O| log |O|) rebuild. It is the publish-rate path of the crowd
// server: an incremental publish touches O(batch) objects, so its plan
// costs O(batch·|Vo| + |O|) instead of a from-scratch build per publish.
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
// When a precondition fails (index shrank, model attached/detached, or a
// model index that does not match its result's — the cases where entries
// cannot be carried over) it falls back to NewPlan and reports advanced =
// false.
func (p *Plan) Advance(idx *data.Index, res *infer.Result, touched []int) (advanced *Plan, ok bool) {
	n := idx.NumObjects()
	nPrev := len(p.MaxMu)
	m, hasM := res.Model.(*core.Model)
	if n < nPrev || hasM != (p.M != nil) ||
		(hasM && m.Idx != idx) || (p.M != nil && p.M.Idx != p.Idx) {
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

	np := &Plan{
		Idx:   idx,
		Res:   res,
		Mu:    res.Rows(idx),
		MaxMu: make([]float64, n),
		Ent:   make([]float64, n),
	}
	if np.Mu == nil {
		np.Mu = make([][]float64, n)
		copy(np.Mu, p.Mu)
		for _, oid := range ts {
			np.Mu[oid] = res.ConfidenceAt(idx, int(oid))
		}
	}
	copy(np.MaxMu, p.MaxMu)
	copy(np.Ent, p.Ent)
	for _, oid := range ts {
		np.MaxMu[oid] = maxOf(np.Mu[oid])
		np.Ent[oid] = entropy(np.Mu[oid])
	}
	// Untouched entropies are copied bits, so the previous ranking's relative
	// order still holds and a merge repairs it exactly.
	np.entOrder = mergeOrder(p.entOrder, ts, n, func(a, b int32) bool {
		if np.Ent[a] != np.Ent[b] {
			return np.Ent[a] > np.Ent[b]
		}
		return a < b
	})
	if m == nil {
		return np, true
	}
	np.M = m
	np.defaultPsi = m.DefaultPsi()
	if n == nPrev {
		np.modelOid = p.modelOid // identity mapping, guarded above; immutable
	} else {
		np.modelOid = make([]int32, n)
		for oid := range np.modelOid {
			np.modelOid[oid] = int32(oid)
		}
	}
	nObj := float64(n)
	np.ueai = make([]float64, n)
	if n == nPrev {
		copy(np.ueai, p.ueai)
		for _, oid := range ts {
			np.ueai[oid] = (1 - m.MaxConfidenceAt(int(oid))) / (nObj * (m.D[oid] + 1))
		}
	} else {
		// |O| changed: the 1/|O| factor moves every bound, so recompute the
		// values outright (same expression as NewPlan, hence bit-identical).
		// The common factor preserves the relative order of untouched
		// objects, so the ranking below still merge-repairs.
		for oid := 0; oid < n; oid++ {
			np.ueai[oid] = (1 - m.MaxConfidenceAt(oid)) / (nObj * (m.D[oid] + 1))
		}
	}
	prevOids := make([]int32, len(p.ueaiOrder))
	for i, en := range p.ueaiOrder {
		prevOids[i] = en.oid
	}
	order := mergeOrder(prevOids, ts, n, func(a, b int32) bool {
		if np.ueai[a] != np.ueai[b] {
			return np.ueai[a] > np.ueai[b]
		}
		return a < b
	})
	np.ueaiOrder = make([]ueaiPlanEntry, len(order))
	for i, oid := range order {
		np.ueaiOrder[i] = ueaiPlanEntry{np.ueai[oid], oid}
	}
	// Carry the cold-worker score cache forward: untouched objects score
	// identically (same model rows, same |O|), so only touched entries need
	// the incremental-EM evaluation. p.defaultScores() fills the previous
	// cache if nothing ever had — Advance runs in the pipeline goroutine, so
	// that one-time cost stays off the request path either way.
	if np.defaultPsi == p.defaultPsi {
		scores := make([]float64, n)
		if n == nPrev {
			copy(scores, p.defaultScores())
			for _, oid := range ts {
				scores[oid] = eaiAt(m, int(oid), np.defaultPsi, nObj)
			}
		} else {
			for oid := 0; oid < n; oid++ {
				scores[oid] = eaiAt(m, oid, np.defaultPsi, nObj)
			}
		}
		np.eaiDefaultOnce.Do(func() { np.eaiDefault = scores })
	}
	return np, true
}

// normalizeTouched sorts and dedups the caller's touched IDs, drops
// out-of-range entries, and forces every ID the previous plan did not cover
// (fresh objects from index growth) to count as touched.
func normalizeTouched(touched []int, nPrev, n int) []int32 {
	seen := make([]bool, n)
	out := make([]int32, 0, len(touched)+n-nPrev)
	for _, t := range touched {
		if t >= 0 && t < n && !seen[t] {
			seen[t] = true
			out = append(out, int32(t))
		}
	}
	for oid := nPrev; oid < n; oid++ {
		if !seen[oid] {
			out = append(out, int32(oid))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mergeOrder repairs a ranking around a touched set: the untouched
// subsequence of prevOrder keeps its relative order (its keys did not
// change), the touched IDs are sorted among themselves, and a two-way merge
// under less stitches them. Because less is a strict total order (every
// comparator tie-breaks by oid), the merge reproduces exactly what a full
// sort of all n IDs would — in O(n + |touched| log |touched|).
func mergeOrder(prevOrder, touched []int32, n int, less func(a, b int32) bool) []int32 {
	isTouched := make([]bool, n)
	for _, t := range touched {
		isTouched[t] = true
	}
	kept := make([]int32, 0, len(prevOrder))
	for _, oid := range prevOrder {
		if int(oid) < n && !isTouched[oid] {
			kept = append(kept, oid)
		}
	}
	ins := append([]int32(nil), touched...)
	sort.Slice(ins, func(i, j int) bool { return less(ins[i], ins[j]) })
	out := make([]int32, 0, len(kept)+len(ins))
	i, j := 0, 0
	for i < len(kept) && j < len(ins) {
		if less(ins[j], kept[i]) {
			out = append(out, ins[j])
			j++
		} else {
			out = append(out, kept[i])
			i++
		}
	}
	out = append(out, kept[i:]...)
	return append(out, ins[j:]...)
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
