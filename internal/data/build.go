package data

import (
	"cmp"
	"maps"
	"slices"
	"strings"

	"repro/internal/hierarchy"
)

// builder is the one construction path behind NewIndex and Extend. It
// resolves every name once: objects, sources, workers and values are
// interned into first-seen (provisional) IDs, one map per kind, and
// renumbered into the index's dense IDs afterwards. Claims are then grouped
// by object with a stable integer counting sort, claim dedup uses
// per-participant stamps, and every per-object list and table is carved
// from a few index-wide slabs.
type builder struct {
	objs, srcs, wkrs, vals interner

	recs   []recRef
	anss   []ansRef
	extras []int32 // the interned Values of multi-valued answers
	seeds  []seedRef
}

// recRef, ansRef and seedRef are a record, an answer and one candidate seed
// with every field interned. obj stays provisional; the other IDs are
// renumbered to final IDs before the views are built.
type recRef struct{ obj, src, val int32 }

type ansRef struct {
	obj, wkr, val int32
	xlo, xhi      int32 // the answer's Values: extras[xlo:xhi]
}

type seedRef struct{ obj, val int32 }

func (r recRef) object() int32  { return r.obj }
func (a ansRef) object() int32  { return a.obj }
func (s seedRef) object() int32 { return s.obj }

func newBuilder(records, answers int) *builder {
	b := &builder{
		recs: make([]recRef, 0, records),
		anss: make([]ansRef, 0, answers),
	}
	for _, in := range []*interner{&b.objs, &b.srcs, &b.wkrs, &b.vals} {
		in.ids = map[string]int{}
	}
	return b
}

func (b *builder) addRecord(r *Record) {
	b.recs = append(b.recs, recRef{b.objs.id(r.Object), b.srcs.id(r.Source), b.vals.id(r.Value)})
}

func (b *builder) addAnswer(a *Answer) {
	ar := ansRef{obj: b.objs.id(a.Object), wkr: b.wkrs.id(a.Worker), val: b.vals.id(a.Value)}
	ar.xlo = int32(len(b.extras))
	for _, v := range a.Values {
		b.extras = append(b.extras, b.vals.id(v))
	}
	ar.xhi = int32(len(b.extras))
	b.anss = append(b.anss, ar)
}

func (b *builder) addSeeds(o string, vals []string) {
	obj := b.objs.id(o)
	for _, v := range vals {
		b.seeds = append(b.seeds, seedRef{obj, b.vals.id(v)})
	}
}

// renumber rewrites the interned source, worker and value IDs to final IDs.
func (b *builder) renumber(srcFinal, wkrFinal, valFinal []int32) {
	for i := range b.recs {
		r := &b.recs[i]
		r.src, r.val = srcFinal[r.src], valFinal[r.val]
	}
	for i := range b.anss {
		a := &b.anss[i]
		a.wkr, a.val = wkrFinal[a.wkr], valFinal[a.val]
	}
	for i, v := range b.extras {
		b.extras[i] = valFinal[v]
	}
	for i := range b.seeds {
		b.seeds[i].val = valFinal[b.seeds[i].val]
	}
}

// interner assigns first-seen IDs to names.
type interner struct {
	ids   map[string]int
	names []string // provisional ID = position
}

func (in *interner) id(s string) int32 {
	if id, ok := in.ids[s]; ok {
		return int32(id)
	}
	id := len(in.names)
	in.ids[s] = id
	in.names = append(in.names, s)
	return int32(id)
}

type named struct {
	name string
	id   int32
}

func cmpNamed(a, b named) int { return strings.Compare(a.name, b.name) }

// sorted numbers the names in string order, so an ID is the position in the
// returned sorted slice. It returns that slice, the interning map with its
// values rewritten to final IDs, each provisional ID's final ID, and the
// provisional IDs in final order.
func (in *interner) sorted() (names []string, ids map[string]int, final, order []int32) {
	ns := make([]named, len(in.names))
	for p, n := range in.names {
		ns[p] = named{n, int32(p)}
	}
	slices.SortFunc(ns, cmpNamed)
	names = make([]string, len(ns))
	final = make([]int32, len(ns))
	order = make([]int32, len(ns))
	for k, e := range ns {
		names[k], final[e.id], order[k] = e.name, int32(k), e.id
		in.ids[e.name] = k
	}
	return names, in.ids, final, order
}

// extend numbers the names against an existing ID space: names already in
// ids keep their ID, new ones follow the existing ones in string order. The
// existing slice and map are returned as they are when nothing is new, and
// copied otherwise: the old index's are read lock-free by snapshot readers.
func (in *interner) extend(names []string, ids map[string]int) ([]string, map[string]int, []int32) {
	final := make([]int32, len(in.names))
	var fresh []named
	for p, n := range in.names {
		if id, ok := ids[n]; ok {
			final[p] = int32(id)
		} else {
			fresh = append(fresh, named{n, int32(p)})
		}
	}
	if len(fresh) == 0 {
		return names, ids, final
	}
	slices.SortFunc(fresh, cmpNamed)
	out := make([]string, len(names), len(names)+len(fresh))
	copy(out, names)
	m := maps.Clone(ids)
	for _, e := range fresh {
		final[e.id] = int32(len(out))
		m[e.name] = len(out)
		out = append(out, e.name)
	}
	return out, m, final
}

// byObject groups item indices by provisional object ID with a stable
// counting sort: object o's items are order[start[o]:start[o+1]], in the
// order they were added (dataset order).
func byObject[T interface{ object() int32 }](n int, items []T) (start, order []int32) {
	start = make([]int32, n+2)
	for _, it := range items {
		start[it.object()+2]++
	}
	for o := 2; o < len(start); o++ {
		start[o] += start[o-1]
	}
	order = make([]int32, len(items))
	for i, it := range items {
		o := it.object() + 1
		order[start[o]] = int32(i)
		start[o]++
	}
	return start[:n+1], order
}

// views builds the views of the interned objects into idx.Views, replacing
// the entries at their final IDs. procs lists the provisional object IDs in
// ascending final ID; objFinal, srcFinal and wkrFinal map provisional IDs to
// the final IDs idx already carries.
func (b *builder) views(idx *Index, procs, objFinal, srcFinal, wkrFinal []int32) {
	valNames, valIDs, valFinal, _ := b.vals.sorted()
	b.renumber(srcFinal, wkrFinal, valFinal)
	vt := hierarchy.NewValueTable(idx.DS.H, valNames, func(v string) (int, bool) {
		id, ok := valIDs[v]
		return id, ok
	})

	nObj := len(b.objs.names)
	recStart, recOrder := byObject(nObj, b.recs)
	ansStart, ansOrder := byObject(nObj, b.anss)
	seedStart, seedOrder := byObject(nObj, b.seeds)

	// Pass 1: each object's candidate set (sorted distinct value IDs) and
	// its pair count, which size the slabs.
	pos := make([]int32, len(valNames))
	cands := make([]int32, 0, len(b.recs)+len(b.anss)+len(b.extras)+len(b.seeds))
	candEnd := make([]int32, len(procs))
	pairs := make([]int32, len(procs))
	var nVals, nLinks, nDense, nWords int
	for k, p := range procs {
		start := len(cands)
		add := func(v int32) {
			if pos[v] == 0 {
				pos[v] = 1
				cands = append(cands, v)
			}
		}
		for _, ri := range recOrder[recStart[p]:recStart[p+1]] {
			add(b.recs[ri].val)
		}
		for _, ai := range ansOrder[ansStart[p]:ansStart[p+1]] {
			a := &b.anss[ai]
			add(a.val)
			for _, v := range b.extras[a.xlo:a.xhi] {
				add(v)
			}
		}
		for _, si := range seedOrder[seedStart[p]:seedStart[p+1]] {
			add(b.seeds[si].val)
		}
		ids := cands[start:]
		slices.Sort(ids)
		pairs[k] = int32(vt.Pairs(ids, pos))
		for _, v := range ids {
			pos[v] = 0
		}
		candEnd[k] = int32(len(cands))
		nV := len(ids)
		nVals += nV
		nLinks += hierarchy.LinksLen(nV, int(pairs[k]))
		nWords += nV * ancWordsFor(nV)
		if nV <= maxDenseTableValues {
			nDense += nV * nV
		}
	}

	// The slabs. Claims are sized by their upper bound (every record and
	// every answer value kept); the rest exactly.
	s := slabs{
		views:  make([]ObjectView, len(procs)),
		cis:    make([]hierarchy.CandidateIndex, len(procs)),
		strs:   make([]string, nVals),
		links:  make([]int32, nLinks),
		ints:   make([]int, nVals),
		bytes:  make([]uint8, nVals+nDense),
		floats: make([]float64, 2*nVals+2*nDense),
		words:  make([]uint64, nWords),
		claims: make([]Claim, 0, len(b.recs)+len(b.anss)+len(b.extras)),
	}

	// Pass 2: fill every view. Stamps mark the participants already claimed
	// on the current object, so the first (object, participant) claim wins.
	srcStamp := make([]int32, len(idx.SourceNames))
	wkrStamp := make([]int32, len(idx.WorkerNames))
	start := int32(0)
	for k, p := range procs {
		ids := cands[start:candEnd[k]]
		start = candEnd[k]
		for i, v := range ids {
			pos[v] = int32(i + 1)
		}
		oid := int(objFinal[p])
		ov := &s.views[k]
		*ov = ObjectView{Object: idx.Objects[oid], ID: oid, CI: &s.cis[k]}
		idx.Views[oid] = ov
		ci := ov.CI
		ci.Values = carve(&s.strs, len(ids))
		for i, v := range ids {
			ci.Values[i] = vt.Names[v]
		}
		vt.Link(ci, ids, pos, carve(&s.links, hierarchy.LinksLen(len(ids), int(pairs[k]))))

		tag := int32(k + 1)
		ov.ValueCount = carve(&s.ints, len(ids))
		sc := s.claims
		for _, ri := range recOrder[recStart[p]:recStart[p+1]] {
			r := &b.recs[ri]
			if srcStamp[r.src] == tag {
				continue
			}
			srcStamp[r.src] = tag
			vi := pos[r.val] - 1
			sc = append(sc, Claim{r.src, vi})
			ov.ValueCount[vi]++
		}
		ov.SourceClaims = s.takeClaims(sc)

		wc := s.claims
		for _, ai := range ansOrder[ansStart[p]:ansStart[p+1]] {
			a := &b.anss[ai]
			if wkrStamp[a.wkr] == tag {
				continue
			}
			wkrStamp[a.wkr] = tag
			wc = appendAnswerClaims(wc, a.wkr, pos[a.val]-1, b.extras[a.xlo:a.xhi], pos)
		}
		ov.WorkerClaims = s.takeClaims(wc)

		ov.fillTables(&s)
		for _, v := range ids {
			pos[v] = 0
		}
	}
}

// appendAnswerClaims appends the worker's claim(s) for one answer: the
// primary value plus, for a multi-valued (multi-truth) answer, one claim per
// distinct extra value. Single-valued answers keep the exactly-one-claim-
// per-(object, worker) invariant the categorical EM path relies on;
// multi-claim workers only appear in multi-truth campaigns, whose
// discoverers group a worker's claims back into one claimed set.
func appendAnswerClaims(cs []Claim, wid, primary int32, extras, pos []int32) []Claim {
	first := len(cs)
	cs = append(cs, Claim{wid, primary})
extras:
	for _, v := range extras {
		vi := pos[v] - 1
		for _, c := range cs[first:] {
			if c.Val == vi {
				continue extras // duplicate within the answer set
			}
		}
		cs = append(cs, Claim{wid, vi})
	}
	return cs
}

// slabs are the index-wide backing arrays every view's lists and tables
// are carved from.
type slabs struct {
	views  []ObjectView
	cis    []hierarchy.CandidateIndex
	strs   []string
	links  []int32
	ints   []int
	bytes  []uint8
	floats []float64
	words  []uint64
	claims []Claim // empty; its capacity is the unused claim slab
}

// carve cuts the next n elements off *s as a capacity-limited piece, so no
// append through one piece can reach its neighbour.
func carve[T any](s *[]T, n int) []T {
	piece := (*s)[:n:n]
	*s = (*s)[n:]
	return piece
}

// takeClaims sorts the claims just appended to the claim slab by
// (participant, value) and carves them off; no claims gives nil.
func (s *slabs) takeClaims(cs []Claim) []Claim {
	if len(cs) == 0 {
		return nil
	}
	slices.SortFunc(cs, cmpClaim)
	s.claims = s.claims[len(cs):len(cs)]
	return cs[:len(cs):len(cs)]
}

// cmpClaim orders claims by participant ID. Multi-valued (multi-truth)
// answers put several claims under one worker; the value tie-break keeps
// their order deterministic.
func cmpClaim(a, b Claim) int {
	if c := cmp.Compare(a.Part, b.Part); c != 0 {
		return c
	}
	return cmp.Compare(a.Val, b.Val)
}

func ancWordsFor(nV int) int { return (nV + 63) / 64 }

// fillTables carves the view's parameter-independent tables from the slabs
// and computes them. Everything the EM inner loop needs per (claim, truth)
// becomes a lookup: relationship class, case-possibility mask, 1/|Go|,
// 1/|rest|, and the popularity distributions. The layout of b, f and w is
// ObjectView's.
func (ov *ObjectView) fillTables(s *slabs) {
	nV := ov.CI.NumValues()
	ov.nV, ov.hier = int32(nV), ov.CI.Hier
	nn := 0
	if ov.dense() {
		nn = nV * nV
	}
	words := ancWordsFor(nV)
	ov.b = carve(&s.bytes, nV+nn)
	ov.f = carve(&s.floats, 2*nV+2*nn)
	ov.w = carve(&s.words, nV*words)
	caseMask, invGo, invRest := ov.b[:nV], ov.f[:nV], ov.f[nV:2*nV]
	total := 0
	for _, c := range ov.ValueCount {
		total += c
	}
	for tr := 0; tr < nV; tr++ {
		row := ov.w[tr*words:]
		for _, a := range ov.CI.Anc(tr) {
			row[a/64] |= 1 << (a % 64)
		}
		g := ov.CI.GoSize(tr)
		rest := nV - g - 1
		if g > 0 {
			caseMask[tr] |= 1
			invGo[tr] = 1 / float64(g)
		}
		if rest > 0 {
			caseMask[tr] |= 2
			invRest[tr] = 1 / float64(rest)
		}
	}
	if nn == 0 {
		return
	}
	rel := ov.RelTable()
	pop2, pop3 := ov.PopTables()
	for tr := 0; tr < nV; tr++ {
		// Denominators shared by every claim column at this truth.
		ancCount := 0
		for _, a := range ov.CI.Anc(tr) {
			ancCount += ov.ValueCount[a]
		}
		goSize := ov.CI.GoSize(tr)
		wrong := nV - 1 - goSize
		restCount := total - ancCount - ov.ValueCount[tr]
		for c := 0; c < nV; c++ {
			k := c*nV + tr
			switch {
			case c == tr:
				rel[k] = 1
			case ov.IsCandAncestor(c, tr):
				rel[k] = 2
			default:
				rel[k] = 3
			}
			if ancCount > 0 {
				pop2[k] = float64(ov.ValueCount[c]) / float64(ancCount)
			} else if goSize > 0 {
				pop2[k] = 1 / float64(goSize)
			}
			if restCount > 0 {
				pop3[k] = float64(ov.ValueCount[c]) / float64(restCount)
			} else if wrong > 0 {
				pop3[k] = 1 / float64(wrong)
			}
		}
	}
}
