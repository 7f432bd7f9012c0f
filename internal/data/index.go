package data

import "repro/internal/hierarchy"

// maxDenseTableValues caps the candidate-set size for which the O(|Vo|²)
// relationship/popularity tables are materialized — 17 bytes per (claim,
// truth) entry (one relationship byte, two popularity float64s), so the cap
// bounds the per-object table cost at ~1.1 MB. Larger candidate sets
// (possible with free-text or numeric workloads) fall back to the ancestor
// bitsets, which stay O(|Vo|²/64) bits and still avoid per-call allocation.
const maxDenseTableValues = 256

// Claim is one deduplicated (participant, value) claim on an object, in the
// dense-ID encoding: Part is the source or worker ID (its position in
// Index.SourceNames / Index.WorkerNames) and Val the candidate index of the
// claimed value in CI.Values.
type Claim struct {
	Part int32
	Val  int32
}

// ObjectView is the per-object slice of the index: candidate values Vo with
// their hierarchy relations, the claims grouped by participant, and the
// static tables the EM hot path reads (relationship classes, case masks,
// popularity distributions). Everything here is immutable after NewIndex or
// Extend returns, and a view holds no reference to the index that built it:
// an index Extend derives shares every untouched view with its parent.
// Every slice is a capacity-limited piece of an index-wide slab (cap ==
// len), shared with the views built alongside it.
//
// The tables are three pieces, one per element kind, each cut at offsets
// that are functions of |Vo| alone (see fillTables):
//
//	b = caseMask (|Vo|) | rel (|Vo|²)
//	f = invGo (|Vo|) | invRest (|Vo|) | pop2 (|Vo|²) | pop3 (|Vo|²)
//	w = the ancestor bitsets, ancWordsFor(|Vo|) words per truth
//
// where the |Vo|² tables are indexed [c*|Vo|+tr] (claim c, truth tr) and
// left out above maxDenseTableValues.
type ObjectView struct {
	Object string
	// ID is the dense object ID: the position of Object in Index.Objects.
	ID int
	// CI indexes Vo: ancestor/descendant sets and the o ∈ OH flag.
	CI *hierarchy.CandidateIndex
	// SourceClaims lists source claims sorted by source ID.
	SourceClaims []Claim
	// WorkerClaims lists worker answers sorted by worker ID.
	WorkerClaims []Claim
	// ValueCount[i] is the number of SOURCES claiming candidate i; the
	// popularity terms Pop2/Pop3 of the worker model are ratios of these.
	ValueCount []int

	// Precomputed parameter-independent tables (see fillTables).
	b    []uint8   // caseMask | rel
	f    []float64 // invGo | invRest | pop2 | pop3
	w    []uint64  // ancestor bitsets: bit c of row tr set iff c ∈ Go(tr)
	nV   int32     // |Vo|
	hier bool      // CI.Hier, kept beside the tables (see Hier)
}

// Hier is CI.Hier (o ∈ OH) and NumValues is CI.NumValues() (|Vo|), read
// from the view itself. They are all the EM and EAI kernels need of the
// candidate index, and reading them here keeps a second dependent load per
// object off those kernels' path: Extend allocates rebuilt views apart from
// the rest, where the hardware prefetcher does not follow a scan.
func (ov *ObjectView) Hier() bool { return ov.hier }

// NumValues is |Vo|.
func (ov *ObjectView) NumValues() int { return int(ov.nV) }

// dense reports whether the view holds the |Vo|² tables.
func (ov *ObjectView) dense() bool { return ov.nV <= maxDenseTableValues }

// findClaim binary-searches a Part-sorted claim slice.
func findClaim(claims []Claim, part int32) (int, bool) {
	lo, hi := 0, len(claims)
	for lo < hi {
		mid := (lo + hi) / 2
		if claims[mid].Part < part {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(claims) && claims[lo].Part == part {
		return int(claims[lo].Val), true
	}
	return 0, false
}

// Argmax is the position of the truth a confidence row over CI.Values picks
// (v*_o = argmax_v μ_{o,v}, Eq. 12), -1 for an empty row. Entries within
// 1e-15 of the best tie, and ties break toward the deeper (more specific)
// value in h (the dataset's hierarchy, nil for none), then the
// lexicographically smaller one, so the pick is deterministic.
func (ov *ObjectView) Argmax(h *hierarchy.Tree, row []float64) int {
	bi, best, bestP, bestD := -1, "", -1.0, -1
	for i, p := range row {
		v := ov.CI.Values[i]
		d := 0
		if h != nil {
			d = h.Depth(v)
		}
		if p > bestP+1e-15 || (p > bestP-1e-15 && (d > bestD || (d == bestD && (best == "" || v < best)))) {
			bi, best, bestP, bestD = i, v, p, d
		}
	}
	return bi
}

// IsCandAncestor reports whether candidate c is a proper ancestor of
// candidate tr within the candidate set (c ∈ Go(tr)), in O(1).
func (ov *ObjectView) IsCandAncestor(c, tr int) bool {
	return ov.w[tr*ancWordsFor(int(ov.nV))+c/64]&(1<<(c%64)) != 0
}

// Rel classifies candidate c against the hypothesized truth tr:
// 1 = exact, 2 = generalized (c ∈ Go(tr)), 3 = wrong. Constant time.
func (ov *ObjectView) Rel(c, tr int) uint8 {
	if c == tr {
		return 1
	}
	if ov.dense() {
		n := int(ov.nV)
		return ov.b[n+c*n+tr]
	}
	if ov.IsCandAncestor(c, tr) {
		return 2
	}
	return 3
}

// RelTable returns the object's relationship table, indexed [c*|Vo|+tr]
// as Rel(c, tr), or nil above the dense-table cap. A kernel over many
// claims of one object takes it once and slices a row per claim, as RelRow
// does.
func (ov *ObjectView) RelTable() []uint8 {
	if !ov.dense() {
		return nil
	}
	return ov.b[ov.nV:]
}

// PopTables returns the object's popularity tables, indexed [c*|Vo|+tr] as
// Pop2(c, tr) and Pop3(c, tr), or nils above the dense-table cap; Pop2Row
// and Pop3Row are their rows.
func (ov *ObjectView) PopTables() (pop2, pop3 []float64) {
	if !ov.dense() {
		return nil, nil
	}
	n := int(ov.nV)
	mid := 2*n + n*n
	return ov.f[2*n : mid : mid], ov.f[mid:]
}

// RelRow returns the relationship row for claim c (indexed by truth), or nil
// when the object is above the dense-table cap.
func (ov *ObjectView) RelRow(c int) []uint8 {
	if !ov.dense() {
		return nil
	}
	n := int(ov.nV)
	lo := n + c*n
	return ov.b[lo : lo+n]
}

// CaseMask returns the possibility mask of truth tr: bit0 set when
// generalized claims are possible (|Go(tr)| > 0), bit1 set when wrong claims
// are possible (|Vo| - |Go(tr)| - 1 > 0).
func (ov *ObjectView) CaseMask(tr int) uint8 { return ov.b[tr] }

// InvGoSize returns 1/|Go(tr)|, or 0 when tr has no candidate ancestors.
func (ov *ObjectView) InvGoSize(tr int) float64 { return ov.f[tr] }

// InvRestSize returns 1/(|Vo|-|Go(tr)|-1), or 0 when no wrong value exists.
func (ov *ObjectView) InvRestSize(tr int) float64 { return ov.f[int(ov.nV)+tr] }

// CaseMasks returns the per-truth possibility masks (see CaseMask).
func (ov *ObjectView) CaseMasks() []uint8 {
	n := int(ov.nV)
	return ov.b[:n:n]
}

// InvGoSizes returns the per-truth 1/|Go(tr)| table.
func (ov *ObjectView) InvGoSizes() []float64 {
	n := int(ov.nV)
	return ov.f[:n:n]
}

// InvRestSizes returns the per-truth 1/(|Vo|-|Go(tr)|-1) table.
func (ov *ObjectView) InvRestSizes() []float64 {
	n := int(ov.nV)
	return ov.f[n : 2*n : 2*n]
}

// Pop2Row returns Pop2(c|·) indexed by truth, or nil above the table cap.
func (ov *ObjectView) Pop2Row(c int) []float64 {
	if !ov.dense() {
		return nil
	}
	n := int(ov.nV)
	lo := 2*n + c*n
	return ov.f[lo : lo+n]
}

// Pop3Row returns Pop3(c|·) indexed by truth, or nil above the table cap.
func (ov *ObjectView) Pop3Row(c int) []float64 {
	if !ov.dense() {
		return nil
	}
	n := int(ov.nV)
	lo := 2*n + n*n + c*n
	return ov.f[lo : lo+n]
}

// Pop2 returns Pop2(v|v*) — among source records whose value is a candidate
// ancestor of truth index tr, the fraction claiming candidate v (both are
// candidate indices). Falls back to uniform over Go(truth) when no source
// generalized the truth. A table lookup below maxDenseTableValues.
func (ov *ObjectView) Pop2(v, tr int) float64 {
	if ov.dense() {
		n := int(ov.nV)
		return ov.f[2*n+v*n+tr]
	}
	den := 0
	for _, a := range ov.CI.Anc(tr) {
		den += ov.ValueCount[a]
	}
	if den == 0 {
		if g := ov.CI.GoSize(tr); g > 0 {
			return 1.0 / float64(g)
		}
		return 0
	}
	return float64(ov.ValueCount[v]) / float64(den)
}

// Pop3 returns Pop3(v|v*) — among source records whose value is neither the
// truth tr nor one of its candidate ancestors, the fraction claiming v.
// Falls back to uniform over the wrong-value set when empty. A table lookup
// below maxDenseTableValues; the fallback uses the ancestor bitsets instead
// of allocating a membership map.
func (ov *ObjectView) Pop3(v, tr int) float64 {
	if ov.dense() {
		n := int(ov.nV)
		return ov.f[2*n+n*n+v*n+tr]
	}
	den := 0
	wrong := 0
	for i, c := range ov.ValueCount {
		if i == tr || ov.IsCandAncestor(i, tr) {
			continue
		}
		wrong++
		den += c
	}
	if den == 0 {
		if wrong > 0 {
			return 1.0 / float64(wrong)
		}
		return 0
	}
	return float64(ov.ValueCount[v]) / float64(den)
}

// Index is the precomputed view of a Dataset that all inference algorithms
// consume. Objects, sources and workers are interned into dense IDs (their
// positions in the sorted name slices); per-object views are addressed by
// object ID, and per-participant claim lists are sorted ID slices.
// Name-keyed accessors are kept for the server and experiment layers.
type Index struct {
	DS *Dataset
	// Objects holds one name per object; the position of a name is its
	// object ID. NewIndex sorts it; Extend appends new objects after the
	// existing ones (sorted among themselves) so established IDs never move.
	Objects []string
	// SourceNames / WorkerNames follow the same discipline; positions are
	// participant IDs.
	SourceNames []string
	WorkerNames []string
	// Views[id] is the per-object view of Objects[id]. A view may be shared
	// with the index this one was extended from (see Extend).
	Views []*ObjectView
	// SourceObjIDs[sid] / WorkerObjIDs[wid] are the sorted object IDs
	// claimed by that participant (Os / Ow).
	SourceObjIDs [][]int32
	WorkerObjIDs [][]int32
	// SrcClaimStart[oid] is the global index of object oid's first source
	// claim in object-major claim order (SrcClaimStart[|O|] = total source
	// claims); WkrClaimStart is the same for worker claims. They give every
	// claim a stable dense ID, so the parallel E-step can write per-claim
	// results without synchronization.
	SrcClaimStart []int32
	WkrClaimStart []int32
	// SourceClaimRefs[sid] lists the global claim IDs of source sid in
	// ascending object order (the CSR transpose of the per-object claim
	// lists); WorkerClaimRefs is the same for workers. The E-step reduces
	// per-claim class posteriors over these, giving a summation order that
	// is independent of the worker count.
	SourceClaimRefs [][]int32
	WorkerClaimRefs [][]int32

	objectID map[string]int
	sourceID map[string]int
	workerID map[string]int
}

// NewIndex builds the index. Every object's candidate set Vo is the set of
// values claimed on it: worker answers contribute too (workers answered from
// Vo in the paper's setting, but the index tolerates out-of-Vo answers by
// extending the candidate set, which also covers free-text crowdsourcing),
// and candidate seeds (Dataset.Candidates) contribute objects and values
// exactly like claims, minus the claim itself. There is one claim per
// (object, source) and per (object, worker): the first in dataset order
// wins and later duplicates are dropped, so the claim lists, ValueCount and
// the participant object lists stay mutually consistent — the EM's M-step
// normalizers depend on it.
//
// The build resolves every name once into integer IDs and groups claims by
// object ID; the per-object lists and tables are capacity-limited pieces of
// a few index-wide slabs (see builder).
func NewIndex(ds *Dataset) *Index {
	b := newBuilder(len(ds.Records), len(ds.Answers))
	for i := range ds.Records {
		b.addRecord(&ds.Records[i])
	}
	for i := range ds.Answers {
		b.addAnswer(&ds.Answers[i])
	}
	// The seeds' map order only permutes provisional IDs, which the sort
	// below renumbers.
	for o, vals := range ds.Candidates {
		b.addSeeds(o, vals)
	}

	idx := &Index{DS: ds}
	var objFinal, procs, srcFinal, wkrFinal []int32
	idx.Objects, idx.objectID, objFinal, procs = b.objs.sorted()
	idx.SourceNames, idx.sourceID, srcFinal, _ = b.srcs.sorted()
	idx.WorkerNames, idx.workerID, wkrFinal, _ = b.wkrs.sorted()
	idx.Views = make([]*ObjectView, len(idx.Objects))
	b.views(idx, procs, objFinal, srcFinal, wkrFinal)
	idx.buildDerived()
	return idx
}

// buildDerived computes every index structure that is a pure function of the
// finalized per-object views: the per-participant object lists (Os / Ow),
// the global claim numbering, and the participant-major CSR transpose.
// Shared by NewIndex and Extend — walking objects in ascending ID keeps the
// per-participant lists sorted and gives every claim its stable global ID.
// The lists are counted first and carved from one slab.
func (idx *Index) buildDerived() {
	srcN := make([]int32, len(idx.SourceNames))
	wkrN := make([]int32, len(idx.WorkerNames))
	var nClaims int
	for _, ov := range idx.Views {
		for _, cl := range ov.SourceClaims {
			srcN[cl.Part]++
		}
		for _, cl := range ov.WorkerClaims {
			wkrN[cl.Part]++
		}
		nClaims += len(ov.SourceClaims) + len(ov.WorkerClaims)
	}
	slab := make([]int32, 2*nClaims)
	idx.SourceObjIDs = emptyLists(&slab, srcN)
	idx.SourceClaimRefs = emptyLists(&slab, srcN)
	idx.WorkerObjIDs = emptyLists(&slab, wkrN)
	idx.WorkerClaimRefs = emptyLists(&slab, wkrN)
	idx.SrcClaimStart = make([]int32, len(idx.Views)+1)
	idx.WkrClaimStart = make([]int32, len(idx.Views)+1)
	var sGlob, wGlob int32
	for i, ov := range idx.Views {
		idx.SrcClaimStart[i] = sGlob
		idx.WkrClaimStart[i] = wGlob
		for _, cl := range ov.SourceClaims {
			idx.SourceObjIDs[cl.Part] = append(idx.SourceObjIDs[cl.Part], int32(i))
			idx.SourceClaimRefs[cl.Part] = append(idx.SourceClaimRefs[cl.Part], sGlob)
			sGlob++
		}
		for _, cl := range ov.WorkerClaims {
			idx.WorkerObjIDs[cl.Part] = append(idx.WorkerObjIDs[cl.Part], int32(i))
			idx.WorkerClaimRefs[cl.Part] = append(idx.WorkerClaimRefs[cl.Part], wGlob)
			wGlob++
		}
	}
	idx.SrcClaimStart[len(idx.Views)] = sGlob
	idx.WkrClaimStart[len(idx.Views)] = wGlob
}

// emptyLists carves one empty list per participant from slab, with room for
// exactly counts[p] appends; a participant with no claims gets nil.
func emptyLists(slab *[]int32, counts []int32) [][]int32 {
	out := make([][]int32, len(counts))
	for p, n := range counts {
		if n > 0 {
			out[p] = carve(slab, int(n))[:0]
		}
	}
	return out
}

// NumSourceClaims returns the total number of deduplicated source claims.
func (idx *Index) NumSourceClaims() int {
	return int(idx.SrcClaimStart[len(idx.SrcClaimStart)-1])
}

// NumWorkerClaims returns the total number of deduplicated worker answers.
func (idx *Index) NumWorkerClaims() int {
	return int(idx.WkrClaimStart[len(idx.WkrClaimStart)-1])
}

// NumObjects returns |O|.
func (idx *Index) NumObjects() int { return len(idx.Objects) }

// NumSources returns the number of distinct claiming sources.
func (idx *Index) NumSources() int { return len(idx.SourceNames) }

// NumWorkers returns the number of distinct answering workers.
func (idx *Index) NumWorkers() int { return len(idx.WorkerNames) }

// View returns the per-object view, or nil if the object is unknown.
func (idx *Index) View(o string) *ObjectView {
	id, ok := idx.objectID[o]
	if !ok {
		return nil
	}
	return idx.Views[id]
}

// ViewAt returns the view of the object with dense ID id.
func (idx *Index) ViewAt(id int) *ObjectView { return idx.Views[id] }

// ObjectID returns the dense ID of object o.
func (idx *Index) ObjectID(o string) (int, bool) {
	id, ok := idx.objectID[o]
	return id, ok
}

// SourceID returns the dense ID of source s.
func (idx *Index) SourceID(s string) (int, bool) {
	id, ok := idx.sourceID[s]
	return id, ok
}

// WorkerID returns the dense ID of worker w.
func (idx *Index) WorkerID(w string) (int, bool) {
	id, ok := idx.workerID[w]
	return id, ok
}

// SourceClaim returns the candidate index source s claims on object o, if
// any.
func (idx *Index) SourceClaim(o, s string) (int, bool) {
	oid, ok := idx.objectID[o]
	if !ok {
		return 0, false
	}
	sid, ok := idx.sourceID[s]
	if !ok {
		return 0, false
	}
	return findClaim(idx.Views[oid].SourceClaims, int32(sid))
}

// ObjectsOfSource returns the sorted object names source s claimed (Os).
func (idx *Index) ObjectsOfSource(s string) []string {
	id, ok := idx.sourceID[s]
	if !ok {
		return nil
	}
	return idx.objectNames(idx.SourceObjIDs[id])
}

func (idx *Index) objectNames(ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = idx.Objects[id]
	}
	return out
}

// HasAnsweredAt reports whether worker wid already answered object oid, by
// dense IDs. A negative wid stands for a worker unknown to the index (who
// therefore answered nothing), so callers can resolve a worker once and
// probe many objects without map lookups.
func (idx *Index) HasAnsweredAt(wid, oid int) bool {
	if wid < 0 || oid < 0 || oid >= len(idx.Views) {
		return false
	}
	_, ok := findClaim(idx.Views[oid].WorkerClaims, int32(wid))
	return ok
}
