package assign

import (
	"cmp"
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
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

// topKCases counts, for one worker's call with the given score per object,
// which edge of the closed form decides it: fewer than k unanswered
// objects, a K-th largest score of 0, or more objects tied at a positive
// K-th score than the call has slots left for them.
type topKCases struct{ fewer, zero, tie int }

func (c *topKCases) add(perObject []float64, answered []uint64, k int) {
	var scores []float64
	for oid, s := range perObject {
		if answered == nil || answered[oid>>6]&(1<<(oid&63)) == 0 {
			scores = append(scores, s)
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
	var cases topKCases
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
		cold := p0.coldScores()
		byScore := make([]int32, idx0.NumObjects())
		for oid := range byScore {
			byScore[oid] = int32(oid)
		}
		slices.SortStableFunc(byScore, func(a, b int32) int {
			return cmp.Compare(cold[b], cold[a])
		})
		positive := 0
		for positive < len(byScore) && cold[byScore[positive]] > 0 {
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
					cases.add(st.plan.coldScores(), answered, k)
				}
			}
		}
	}
	if cases.tie == 0 || cases.zero == 0 || cases.fewer == 0 {
		t.Fatalf("an edge case never decided a call: %+v", cases)
	}
	t.Logf("calls decided by fewer than K unanswered: %d, a K-th score of 0: %d, a tie at it: %d", cases.fewer, cases.zero, cases.tie)
}

// fittedWorkers appends to ds answers from a pool of nWorkers workers that
// each answer perWorker distinct objects, and from "zz-all-but-7", who
// answers every object but seven (so fewer than K remain for K > 7): after
// a fit every one of them has a fitted ψ. It returns the workers' names.
func fittedWorkers(ds *data.Dataset, nWorkers, perWorker int) []string {
	pool := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: 5, Count: nWorkers, Pi: 0.75})
	idx := data.NewIndex(ds)
	rng := rand.New(rand.NewSource(5))
	var names []string
	for _, w := range pool {
		names = append(names, w.Name)
		for _, oid := range rng.Perm(idx.NumObjects())[:perWorker] {
			ov := idx.ViewAt(oid)
			ds.Answers = append(ds.Answers, data.Answer{Object: ov.Object, Worker: w.Name, Value: w.Answer(rng, ds, ov)})
		}
	}
	for oid := 7; oid < idx.NumObjects(); oid++ {
		ov := idx.ViewAt(oid)
		ds.Answers = append(ds.Answers, data.Answer{Object: ov.Object, Worker: "zz-all-but-7", Value: pool[0].Answer(rng, ds, ov)})
	}
	return append(names, "zz-all-but-7")
}

// TestFittedTopKIsTheScan pins what the plan an EAI campaign publishes
// (PlanFor) returns to a worker with a fitted ψ — every returning worker's
// /task — to Algorithm 1's scan: the same call without a plan, which scores
// every object it visits with eaiAt. It covers Heritages ×1 at about 3 and
// about 9 crowd answers per object, on the plan built for the fit, on the plan
// advanced over a fold of further answers, and on the plan advanced across
// index growth by three objects that share one candidate set and have no
// claims (so they tie), for K ∈ {1, 3, 5, 10, 40}; and it requires that a
// tie at a positive K-th score, a K-th score of 0 and fewer than K
// unanswered objects each decided some call.
func TestFittedTopKIsTheScan(t *testing.T) {
	var cases topKCases
	for _, c := range []struct {
		name      string
		perWorker int
	}{{"Heritages ×1, ~3 answers per object", 60}, {"Heritages ×1, ~9 answers per object", 250}} {
		ds := synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: 1})
		workers := fittedWorkers(ds, 24, c.perWorker)
		idx := data.NewIndex(ds)
		res := infer.NewTDH().Infer(idx)
		m := res.Rows.(*core.Model)
		fresh := PlanFor(EAI{}, idx, res)

		// A fold of further answers from the pool: each ψ stays as fitted.
		folded := m.Clone()
		var touched []int
		for i := range 60 {
			oid := (i * 13) % idx.NumObjects()
			wid, _ := idx.WorkerID(workers[i%len(workers)])
			folded.ApplyAnswerAt(oid, wid, i%len(idx.ViewAt(oid).CI.Values))
			touched = append(touched, oid)
		}
		resFolded := infer.ViewOf(folded, nil)
		advanced, ok := fresh.Advance(idx, resFolded, touched)
		if !ok {
			t.Fatalf("%s: Advance over a fold fell back to a full build", c.name)
		}

		// Growth: three objects with one donor's candidates and no claims.
		donor := idx.ViewAt(0).CI.Values
		mu := data.Mutation{Candidates: map[string][]string{}}
		for _, o := range []string{"zzz-grown-a", "zzz-grown-b", "zzz-grown-c"} {
			mu.Candidates[o] = slices.Clone(donor)
		}
		work := idx.DS.Clone()
		work.Candidates = mu.Candidates
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
				psi := m.PsiOf(w)
				if psi == m.DefaultPsi() {
					t.Fatalf("%s %s: worker %s is at the prior-mean ψ", c.name, st.name, w)
				}
				wid, _ := st.idx.WorkerID(w)
				answered := newAnsweredSets(st.idx, []int{wid})[0]
				tab := core.NewWorkerTab(psi)
				scores := make([]float64, st.idx.NumObjects())
				for oid := range scores {
					scores[oid], _ = eaiAt(m, oid, &tab)
				}
				for _, k := range []int{1, 3, 5, 10, 40} {
					var fallbacks atomic.Int64
					ctx := &Context{Idx: st.idx, Res: st.res, Plan: st.plan, PlanFallbacks: &fallbacks, Workers: []string{w}, K: k, Seed: 1}
					got, stats := EAI{}.AssignWithStats(ctx)
					ctx.Plan = nil
					want, _ := EAI{}.AssignWithStats(ctx)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s, worker %s, K=%d: plan %v, scan %v", c.name, st.name, w, k, got[w], want[w])
					}
					if fallbacks.Load() != 0 || stats.Settled != 0 {
						t.Fatalf("%s %s, worker %s, K=%d: %d plan fallbacks, %d settled evaluations; want the plan's closed form", c.name, st.name, w, k, fallbacks.Load(), stats.Settled)
					}
					cases.add(scores, answered, k)
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
		p := &Plan{coldRank: rankKeys(scores), ueaiRank: rankKeys(bounds)}
		k := 1 + rng.Intn(12)
		got, _ := p.coldTopK(answered, 0, k, func(oid int) float64 { return bounds[oid] })
		slices.Sort(got)
		if want := heapTopK(p, scores, answered, k); !slices.Equal(got, want) {
			t.Fatalf("trial %d (K=%d, scores %v, bounds %v): closed form %v, heap %v", trial, k, scores, bounds, got, want)
		}
	}
}

// TestFittedTopKIsTheHeap checks fittedTopK against Algorithm 1's heap for
// one worker, run directly over random scores and bounds as
// TestColdTopKIsTheHeap does, with a quarter of the objects settled: keyed
// −1 in the cold-worker ranking and scoring 0. The cold-worker keys of the
// others are drawn apart from the worker's scores, so the walk's order says
// nothing about them, and an unsettled object may score 0.
func TestFittedTopKIsTheHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := range 3000 {
		n := 1 + rng.Intn(80)
		cold, scores, bounds := make([]float64, n), make([]float64, n), make([]float64, n)
		answered := make(answeredSets, 1)
		answered[0] = make([]uint64, (n+63)/64)
		for oid := range n {
			cold[oid] = float64(rng.Intn(4)) / 4
			scores[oid] = float64(max(rng.Intn(6)-2, 0)) / 4
			if rng.Intn(4) == 0 {
				cold[oid], scores[oid] = -1, 0
			}
			bounds[oid] = scores[oid] + float64(rng.Intn(4))/4
			if rng.Intn(4) == 0 {
				answered[0][oid>>6] |= 1 << (oid & 63)
			}
		}
		p := &Plan{coldRank: rankKeys(cold), ueaiRank: rankKeys(bounds)}
		k := 1 + rng.Intn(12)
		got, _ := p.fittedTopK(answered, 0, k, func(oid int32) float64 { return scores[oid] }, func(oid int) float64 { return bounds[oid] })
		slices.Sort(got)
		if want := heapTopK(p, scores, answered, k); !slices.Equal(got, want) {
			t.Fatalf("trial %d (K=%d, cold keys %v, scores %v, bounds %v): closed form %v, heap %v", trial, k, cold, scores, bounds, got, want)
		}
	}
}

// TestSettledIsTheNegativeTail checks Settled's count of the cold-worker
// ranking's −1 tail against a count of the keys, on rankings of several
// chunks: a tail that is empty, everything, or starts on either side of a
// chunk edge, and the uneven chunks Update leaves as keys move in and out
// of it.
func TestSettledIsTheNegativeTail(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 511, 512, 513, 1500} {
		for _, settled := range []int{0, 1, 511, 512, 513, n / 2, n - 1, n} {
			if settled < 0 || settled > n {
				continue
			}
			keys := make([]float64, n)
			for i, oid := range rng.Perm(n) {
				keys[oid] = float64(rng.Intn(8)) / 8
				if i < settled {
					keys[oid] = -1
				}
			}
			p := &Plan{coldRank: rankKeys(keys)}
			for step := range 20 {
				want := 0
				for _, key := range keys {
					if key < 0 {
						want++
					}
				}
				if got := p.Settled(); got != want {
					t.Fatalf("n=%d, %d settled, step %d: Settled %d, the keys hold %d", n, settled, step, got, want)
				}
				if n == 0 {
					break
				}
				moves := make([]cow.Rekey, 0, 40)
				for _, oid := range rng.Perm(n)[:min(n, 40)] {
					key := float64(rng.Intn(8)) / 8
					if rng.Intn(2) == 0 {
						key = -1
					}
					moves = append(moves, cow.Rekey{ID: int32(oid), Old: keys[oid], New: key})
					keys[oid] = key
				}
				p.coldRank = p.coldRank.Update(moves, nil)
			}
		}
	}
}

// rankKeys ranks objects 0..len(keys)-1 by keys, as Plan.rank does.
func rankKeys(keys []float64) cow.Ranking {
	entries := make([]cow.Entry, len(keys))
	for oid, key := range keys {
		entries[oid] = cow.Entry{Key: key, ID: int32(oid)}
	}
	return cow.NewRanking(entries)
}

// heapTopK is AssignWithStats' scan for one worker with pruning on, over
// the plan's UEAI order and the given scores: the reference coldTopK and
// fittedTopK return, IDs ascending.
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
