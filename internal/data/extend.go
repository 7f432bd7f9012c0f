package data

import (
	"cmp"
	"slices"
)

// Mutation is a batch of dataset additions applied by Index.Extend: source
// records, worker answers, and per-object candidate seeds (the open-world
// growth events of a live campaign). All referenced values must already
// exist in the value hierarchy when one is attached — new-value hierarchy
// nodes are out of scope for live growth; they require a full rebuild.
type Mutation struct {
	Records    []Record
	Answers    []Answer
	Candidates map[string][]string
}

// Empty reports whether the mutation carries nothing to apply.
func (mu *Mutation) Empty() bool {
	return len(mu.Records) == 0 && len(mu.Answers) == 0 && len(mu.Candidates) == 0
}

// objects lists every object name the mutation touches.
func (mu *Mutation) objects() map[string]bool {
	touched := make(map[string]bool, len(mu.Records)+len(mu.Answers)+len(mu.Candidates))
	for _, r := range mu.Records {
		touched[r.Object] = true
	}
	for _, a := range mu.Answers {
		touched[a.Object] = true
	}
	for o := range mu.Candidates {
		touched[o] = true
	}
	return touched
}

// Extend returns a new Index covering idx plus the mutation, leaving idx —
// which may be the index of a published, concurrently-read snapshot —
// untouched. ds must be the dataset with the mutation already appended (the
// caller owns the dataset copy; the extended index adopts it as its DS).
//
// Dense IDs are stable: every object, source and worker known to idx keeps
// its ID, and new names are interned after the existing ones (sorted among
// themselves, for determinism). Only the objects the mutation touches get
// their views — candidate index, claim lists, precomputed relationship and
// popularity tables — rebuilt, by the same builder NewIndex runs, over their
// full claim lists in dataset order, so each rebuilt view equals the one a
// from-scratch build gives it. Untouched views, which dominate under live
// growth, are shared with idx: the same *ObjectView sits in both indexes.
// The derived claim numbering and CSR transpose are recomputed (a linear
// integer pass), so the result is a full-fidelity Index: inference on it
// matches NewIndex(ds) up to summation order, which is what pins the
// grow-then-infer ≡ build-from-scratch equivalence.
//
// Cost: O(touched views + |O| words + claims) — the touched views' rebuild,
// a copy of the view pointer slice, and integer passes over the dataset's
// claims (collecting the touched objects' claims, renumbering every claim).
//
// The second return value lists the touched object IDs (rebuilt and new) in
// ascending order, which is what core.Model.Grow needs to re-seed exactly
// the entries whose candidate sets may have changed.
func (idx *Index) Extend(ds *Dataset, mu Mutation) (*Index, []int) {
	touchedNames := mu.objects()
	if len(touchedNames) == 0 {
		return idx, nil
	}

	// Intern the touched objects' claims and seeds. A touched object can
	// carry claims from participants the old index has not interned: new
	// sources from the mutation are the common case, and answers from
	// workers accepted since the last full refit (the dataset leads the
	// fitted index under streaming) must not be orphaned by the rebuild.
	b := newBuilder(len(mu.Records), len(mu.Answers))
	for o := range touchedNames {
		b.objs.id(o)
	}
	for i := range ds.Records {
		if r := &ds.Records[i]; touchedNames[r.Object] {
			b.addRecord(r)
		}
	}
	for i := range ds.Answers {
		if a := &ds.Answers[i]; touchedNames[a.Object] {
			b.addAnswer(a)
		}
	}
	for o, vals := range ds.Candidates {
		if touchedNames[o] {
			b.addSeeds(o, vals)
		}
	}

	next := &Index{DS: ds}
	var objFinal, srcFinal, wkrFinal []int32
	next.Objects, next.objectID, objFinal = b.objs.extend(idx.Objects, idx.objectID)
	next.SourceNames, next.sourceID, srcFinal = b.srcs.extend(idx.SourceNames, idx.sourceID)
	next.WorkerNames, next.workerID, wkrFinal = b.wkrs.extend(idx.WorkerNames, idx.workerID)

	// Untouched views are shared with idx as they are; touched ones are
	// rebuilt below into fresh views.
	next.Views = make([]*ObjectView, len(next.Objects))
	copy(next.Views, idx.Views)

	procs := make([]int32, len(objFinal))
	for p := range procs {
		procs[p] = int32(p)
	}
	slices.SortFunc(procs, func(a, b int32) int { return cmp.Compare(objFinal[a], objFinal[b]) })
	b.views(next, procs, objFinal, srcFinal, wkrFinal)
	next.buildDerived()

	touched := make([]int, len(procs))
	for k, p := range procs {
		touched[k] = int(objFinal[p])
	}
	return next, touched
}
