package assign

import (
	"cmp"
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cow"
	"repro/internal/data"
	"repro/internal/infer"
	"repro/internal/synth"
)

// coldWorkers adds answers from new workers to idx's dataset through
// Index.Extend and Model.Grow, the way open-world growth indexes them: each
// worker is interned after the fitted ones at the prior-mean ψ, so it is a
// prior-ψ worker with an answered set. byScore ranks idx's objects by their
// cold-worker score, highest first, positive of them above 0. Worker i
// answers a few objects near the top of that ranking and a stride of
// others; "most" answers every object with a positive score but three, so
// the K-th score among the rest is 0 for K > 3; "all-but-7" answers every
// object but seven, so fewer than K remain for K > 7.
func coldWorkers(idx *data.Index, m *core.Model, byScore []int32, positive int) (*data.Index, *core.Model, []string) {
	n := idx.NumObjects()
	answer := func(w string, oid int32) data.Answer {
		ov := idx.ViewAt(int(oid))
		return data.Answer{Object: ov.Object, Worker: w, Value: ov.CI.Values[int(oid)%len(ov.CI.Values)]}
	}
	var answers []data.Answer
	var workers []string
	for i := range 6 {
		w := fmt.Sprintf("zz-cold-%d", i)
		workers = append(workers, w)
		for r := i; r < min(40, n); r += 3 + i {
			answers = append(answers, answer(w, byScore[r]))
		}
		for oid := 11 * i; oid < n; oid += 97 {
			answers = append(answers, answer(w, int32(oid)))
		}
	}
	for _, oid := range byScore[:max(positive-3, 0)] {
		answers = append(answers, answer("zz-cold-most", oid))
	}
	for _, oid := range byScore[7:] {
		answers = append(answers, answer("zz-cold-all-but-7", oid))
	}
	workers = append(workers, "zz-cold-most", "zz-cold-all-but-7", "zz-never-seen")

	// The two strides may name an object twice for one worker; keep one.
	seen := map[[2]string]bool{}
	kept := answers[:0]
	for _, a := range answers {
		if key := [2]string{a.Worker, a.Object}; !seen[key] {
			seen[key] = true
			kept = append(kept, a)
		}
	}
	work := idx.DS.Clone()
	work.Answers = append(work.Answers, kept...)
	idx2, touched := idx.Extend(work, data.Mutation{Answers: kept})
	return idx2, m.Grow(idx2, touched), workers
}

// coldCases counts, for one prior-ψ worker's call, which edge of the closed
// form decides it: fewer than k unanswered objects, a K-th largest score of
// 0, or more objects tied at a positive K-th score than the call has slots
// left for them.
type coldCases struct{ fewer, zero, tie int }

func (c *coldCases) add(p *Plan, answered []uint64, k int) {
	var scores []float64
	for oid := range p.Idx.NumObjects() {
		if answered == nil || answered[oid>>6]&(1<<(oid&63)) == 0 {
			scores = append(scores, p.defaultScores().At(oid))
		}
	}
	if len(scores) < k {
		c.fewer++
		return
	}
	slices.SortFunc(scores, func(a, b float64) int { return cmp.Compare(b, a) })
	t := scores[k-1]
	if t == 0 {
		c.zero++
	}
	above, at := 0, 0
	for _, s := range scores {
		switch {
		case s > t:
			above++
		case s == t:
			at++
		}
	}
	if t > 0 && at > k-above {
		c.tie++
	}
}

// TestColdTopKIsTheScan pins what an attached plan returns to a
// prior-ψ worker — the worker every cold /task serves — to Algorithm 1's
// scan: the same call without a plan, which scores every object it visits
// with eaiAt. It covers prior-ψ workers with answered sets (indexed through
// Index.Extend and Model.Grow) on the plan built for them, on the plan
// advanced over a fold of further answers, and on the plan advanced across
// index growth, for K ∈ {1, 3, 5, 10, 40}; and it requires that a tie at the
// K-th score, a K-th score of 0 and fewer than K unanswered objects each
// decided some call.
func TestColdTopKIsTheScan(t *testing.T) {
	var cases coldCases
	for _, c := range []struct {
		name string
		ds   *data.Dataset
	}{
		{"BirthPlaces ×0.5", synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: 0.5})},
		{"Heritages ×1", synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: 1})},
	} {
		idx0 := data.NewIndex(c.ds)
		res0 := infer.NewTDH().Infer(idx0)
		p0 := NewPlan(idx0, res0)
		byScore := make([]int32, idx0.NumObjects())
		for oid := range byScore {
			byScore[oid] = int32(oid)
		}
		slices.SortStableFunc(byScore, func(a, b int32) int {
			return cmp.Compare(p0.defaultScores().At(int(b)), p0.defaultScores().At(int(a)))
		})
		positive := 0
		for positive < len(byScore) && p0.defaultScores().At(int(byScore[positive])) > 0 {
			positive++
		}
		idx, m, workers := coldWorkers(idx0, res0.Rows.(*core.Model), byScore, positive)
		res := infer.ViewOf(m, nil)
		fresh := NewPlan(idx, res)

		// A fold of further answers, from the cold workers and from workers
		// the index has never seen: every ψ stays the prior mean.
		folded := m.Clone()
		var touched []int
		for i := range 60 {
			oid := int(byScore[(i*5)%min(200, len(byScore))])
			wid, ok := idx.WorkerID(workers[i%len(workers)])
			if !ok {
				wid = -1
			}
			folded.ApplyAnswerAt(oid, wid, i%len(idx.ViewAt(oid).CI.Values))
			touched = append(touched, oid)
		}
		resFolded := infer.ViewOf(folded, nil)
		advanced, ok := fresh.Advance(idx, resFolded, touched)
		if !ok {
			t.Fatalf("%s: Advance over a fold fell back to a full build", c.name)
		}

		// Growth: a new object, and an answer from a cold worker.
		donor := idx.ViewAt(int(byScore[0]))
		mu := data.Mutation{
			Candidates: map[string][]string{"zzz-grown-object": slices.Clone(donor.CI.Values)},
			Answers:    []data.Answer{{Object: idx.ViewAt(int(byScore[1])).Object, Worker: "zz-cold-0", Value: idx.ViewAt(int(byScore[1])).CI.Values[0]}},
		}
		work := idx.DS.Clone()
		work.Candidates = map[string][]string{"zzz-grown-object": slices.Clone(donor.CI.Values)}
		work.Answers = append(work.Answers, mu.Answers...)
		idxGrown, grown := idx.Extend(work, mu)
		resGrown := infer.ViewOf(folded.Grow(idxGrown, grown), nil)
		grownPlan, ok := advanced.Advance(idxGrown, resGrown, grown)
		if !ok {
			t.Fatalf("%s: Advance across growth fell back to a full build", c.name)
		}

		for _, st := range []struct {
			name string
			idx  *data.Index
			res  *infer.Result
			plan *Plan
		}{
			{"fresh", idx, res, fresh},
			{"advanced", idx, resFolded, advanced},
			{"grown", idxGrown, resGrown, grownPlan},
		} {
			m := st.res.Rows.(*core.Model)
			for _, w := range workers {
				if m.PsiOf(w) != m.DefaultPsi() {
					t.Fatalf("%s %s: worker %s is not at the prior-mean ψ", c.name, st.name, w)
				}
				var answered []uint64
				if wid, ok := st.idx.WorkerID(w); ok {
					answered = newAnsweredSets(st.idx, []int{wid})[0]
				}
				for _, k := range []int{1, 3, 5, 10, 40} {
					ctx := &Context{Idx: st.idx, Res: st.res, Plan: st.plan, Workers: []string{w}, K: k, Seed: 1}
					got, _ := EAI{}.AssignWithStats(ctx)
					ctx.Plan = nil
					want, _ := EAI{}.AssignWithStats(ctx)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s, worker %s, K=%d: plan %v, scan %v", c.name, st.name, w, k, got[w], want[w])
					}
					cases.add(st.plan, answered, k)
				}
			}
		}
	}
	if cases.tie == 0 || cases.zero == 0 || cases.fewer == 0 {
		t.Fatalf("an edge case never decided a call: %+v", cases)
	}
	t.Logf("calls decided by fewer than K unanswered: %d, a K-th score of 0: %d, a tie at it: %d", cases.fewer, cases.zero, cases.tie)
}

// TestColdTopKIsTheHeap checks the closed form against Algorithm 1's heap
// for one worker, run directly over random scores and bounds: few distinct
// values, so scores tie often — at 0 and above — and tied scores carry
// bounds in an order unrelated to their IDs, with every bound at least its
// score (Lemma 4.1), random answered sets and K from 1 to 12.
func TestColdTopKIsTheHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 3000 {
		n := 1 + rng.Intn(80)
		scores, bounds := make([]float64, n), make([]float64, n)
		answered := make(answeredSets, 1)
		answered[0] = make([]uint64, (n+63)/64)
		for oid := range n {
			scores[oid] = float64(max(rng.Intn(6)-2, 0)) / 4
			bounds[oid] = scores[oid] + float64(rng.Intn(4))/4
			if rng.Intn(4) == 0 {
				answered[0][oid>>6] |= 1 << (oid & 63)
			}
		}
		p := &Plan{eaiDefault: cow.Paged(scores), coldRank: rank(scores), ueai: cow.Paged(bounds), ueaiRank: rank(bounds)}
		k := 1 + rng.Intn(12)
		got, _ := p.coldTopK(answered, 0, k)
		slices.Sort(got)
		if want := heapTopK(p, scores, answered, k); !slices.Equal(got, want) {
			t.Fatalf("trial %d (K=%d, scores %v, bounds %v): closed form %v, heap %v", trial, k, scores, bounds, got, want)
		}
	}
}

// heapTopK is AssignWithStats' scan for one worker with pruning on, over
// the plan's UEAI order and the given scores: the reference coldTopK
// returns, IDs ascending.
func heapTopK(p *Plan, scores []float64, answered answeredSets, k int) []int32 {
	var h eaiHeap
scan:
	for _, chunk := range p.ueaiRank.Chunks() {
		for _, en := range chunk {
			if len(h) >= k && h[0].score > en.Key {
				break scan
			}
			if answered.has(0, int(en.ID)) || len(h) >= k && h[0].score >= en.Key {
				continue
			}
			if s := scores[en.ID]; len(h) < k {
				heap.Push(&h, eaiEntry{s, en.ID})
			} else if s > h[0].score {
				heap.Pop(&h)
				heap.Push(&h, eaiEntry{s, en.ID})
			}
		}
	}
	ids := make([]int32, 0, len(h))
	for _, en := range h {
		ids = append(ids, en.oid)
	}
	slices.Sort(ids)
	return ids
}
