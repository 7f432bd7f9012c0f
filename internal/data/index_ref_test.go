package data

import (
	"sort"

	"repro/internal/hierarchy"
)

// This file keeps the straightforward, string-keyed index build as a
// reference: refNewIndex must equal NewIndex (reflect.DeepEqual) on every
// input. It shares no code with the builder — its own candidate index, claim
// ingestion, tables and derived pass — and differs from the original build
// only where CandidateIndex lost its Pos map: a local map does that job.

// refCandidateIndex is the original hierarchy.NewCandidateIndex: map dedup,
// an insertion sort, and one Tree.Ancestors walk per candidate.
func refCandidateIndex(t *hierarchy.Tree, candidates []string) (*hierarchy.CandidateIndex, map[string]int) {
	seen := make(map[string]bool, len(candidates))
	vals := make([]string, 0, len(candidates))
	for _, v := range candidates {
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	ci := &hierarchy.CandidateIndex{Values: vals}
	pos := make(map[string]int, len(vals))
	for i, v := range vals {
		pos[v] = i
	}
	anc := make([][]int32, len(vals))
	desc := make([][]int32, len(vals))
	for i, v := range vals {
		if t == nil || !t.Contains(v) {
			continue
		}
		for _, a := range t.Ancestors(v) {
			if j, ok := pos[a]; ok {
				anc[i] = append(anc[i], int32(j))
				desc[j] = append(desc[j], int32(i))
				ci.Hier = true
			}
		}
	}
	if ci.Hier {
		ci.Links = refLinks(append(anc, desc...))
	}
	return ci, pos
}

// refLinks lays lists out as a CandidateIndex's Links: one end offset per
// list, then the lists back to back.
func refLinks(lists [][]int32) []int32 {
	links := make([]int32, len(lists))
	for j, l := range lists {
		links = append(links, l...)
		links[j] = int32(len(links))
	}
	return links
}

func refNewIndex(ds *Dataset) *Index {
	idx := &Index{DS: ds}

	perObjVals := map[string][]string{}
	for _, r := range ds.Records {
		perObjVals[r.Object] = append(perObjVals[r.Object], r.Value)
	}
	for _, a := range ds.Answers {
		perObjVals[a.Object] = append(perObjVals[a.Object], a.Value)
		perObjVals[a.Object] = append(perObjVals[a.Object], a.Values...)
	}
	for o, vals := range ds.Candidates {
		perObjVals[o] = append(perObjVals[o], vals...)
	}
	idx.Objects = make([]string, 0, len(perObjVals))
	for o := range perObjVals {
		idx.Objects = append(idx.Objects, o)
	}
	sort.Strings(idx.Objects)
	idx.objectID = make(map[string]int, len(idx.Objects))
	for i, o := range idx.Objects {
		idx.objectID[o] = i
	}

	idx.SourceNames = refInternNames(len(ds.Records), func(i int) string { return ds.Records[i].Source })
	idx.WorkerNames = refInternNames(len(ds.Answers), func(i int) string { return ds.Answers[i].Worker })
	idx.sourceID = make(map[string]int, len(idx.SourceNames))
	for i, s := range idx.SourceNames {
		idx.sourceID[s] = i
	}
	idx.workerID = make(map[string]int, len(idx.WorkerNames))
	for i, w := range idx.WorkerNames {
		idx.workerID[w] = i
	}

	idx.Views = make([]*ObjectView, len(idx.Objects))
	pos := make([]map[string]int, len(idx.Objects))
	for i, o := range idx.Objects {
		var ci *hierarchy.CandidateIndex
		ci, pos[i] = refCandidateIndex(ds.H, perObjVals[o])
		idx.Views[i] = &ObjectView{
			Object:     o,
			ID:         i,
			CI:         ci,
			ValueCount: make([]int, ci.NumValues()),
		}
	}

	type pair struct{ o, p int }
	seen := make(map[pair]bool, len(ds.Records))
	for _, r := range ds.Records {
		oid := idx.objectID[r.Object]
		sid := idx.sourceID[r.Source]
		if seen[pair{oid, sid}] {
			continue
		}
		seen[pair{oid, sid}] = true
		ov := idx.Views[oid]
		vi := pos[oid][r.Value]
		ov.SourceClaims = append(ov.SourceClaims, Claim{int32(sid), int32(vi)})
		ov.ValueCount[vi]++
	}
	clear(seen)
	for i := range ds.Answers {
		a := &ds.Answers[i]
		oid := idx.objectID[a.Object]
		wid := idx.workerID[a.Worker]
		if seen[pair{oid, wid}] {
			continue
		}
		seen[pair{oid, wid}] = true
		refAppendAnswerClaims(idx.Views[oid], pos[oid], wid, a)
	}

	for _, ov := range idx.Views {
		refSortClaims(ov.SourceClaims)
		refSortClaims(ov.WorkerClaims)
		refPrecompute(ov)
	}
	refBuildDerived(idx)
	return idx
}

func refInternNames(n int, get func(int) string) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s := get(i)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

func refSortClaims(cs []Claim) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Part != cs[j].Part {
			return cs[i].Part < cs[j].Part
		}
		return cs[i].Val < cs[j].Val
	})
}

func refAppendAnswerClaims(ov *ObjectView, pos map[string]int, wid int, a *Answer) {
	primary := int32(pos[a.Value])
	ov.WorkerClaims = append(ov.WorkerClaims, Claim{int32(wid), primary})
	if len(a.Values) == 0 {
		return
	}
	start := len(ov.WorkerClaims) - 1
extras:
	for _, v := range a.Values {
		ci, ok := pos[v]
		if !ok {
			continue
		}
		for _, c := range ov.WorkerClaims[start:] {
			if c.Val == int32(ci) {
				continue extras
			}
		}
		ov.WorkerClaims = append(ov.WorkerClaims, Claim{int32(wid), int32(ci)})
	}
}

func refPrecompute(ov *ObjectView) {
	nV := ov.CI.NumValues()
	ov.nV, ov.hier = int32(nV), ov.CI.Hier
	ancWords := (nV + 63) / 64
	ancBits := make([]uint64, nV*ancWords)
	caseMask := make([]uint8, nV)
	invGo := make([]float64, nV)
	invRest := make([]float64, nV)
	total := 0
	for _, c := range ov.ValueCount {
		total += c
	}
	for tr := 0; tr < nV; tr++ {
		row := ancBits[tr*ancWords:]
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
	ov.w = ancBits
	ov.b = caseMask
	ov.f = append(invGo, invRest...)
	if nV > maxDenseTableValues {
		return
	}
	rel := make([]uint8, nV*nV)
	pop2 := make([]float64, nV*nV)
	pop3 := make([]float64, nV*nV)
	for tr := 0; tr < nV; tr++ {
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
			case ancBits[tr*ancWords+c/64]&(1<<(c%64)) != 0:
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
	ov.b = append(ov.b, rel...)
	ov.f = append(append(ov.f, pop2...), pop3...)
}

func refBuildDerived(idx *Index) {
	idx.SourceObjIDs = make([][]int32, len(idx.SourceNames))
	idx.WorkerObjIDs = make([][]int32, len(idx.WorkerNames))
	idx.SrcClaimStart = make([]int32, len(idx.Views)+1)
	idx.WkrClaimStart = make([]int32, len(idx.Views)+1)
	idx.SourceClaimRefs = make([][]int32, len(idx.SourceNames))
	idx.WorkerClaimRefs = make([][]int32, len(idx.WorkerNames))
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
