package assign

import (
	"container/heap"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/infer"
	"repro/internal/synth"
)

// --- Legacy reference implementation -------------------------------------
//
// A verbatim port of the pre-planner EAI (per-call UEAI max-heap over
// object names, string-keyed bound map). The planner rewrite must produce
// bit-identical assignments; this copy pins that.

type legacyUEAIEntry struct {
	ub float64
	o  string
}

type legacyUEAIHeap []legacyUEAIEntry

func (h legacyUEAIHeap) Len() int      { return len(h) }
func (h legacyUEAIHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h legacyUEAIHeap) Less(i, j int) bool {
	if h[i].ub != h[j].ub {
		return h[i].ub > h[j].ub // max-heap
	}
	return h[i].o < h[j].o
}
func (h *legacyUEAIHeap) Push(x any) { *h = append(*h, x.(legacyUEAIEntry)) }
func (h *legacyUEAIHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type legacyEAIEntry struct {
	score float64
	o     string
}

type legacyEAIHeap []legacyEAIEntry

func (h legacyEAIHeap) Len() int      { return len(h) }
func (h legacyEAIHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h legacyEAIHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score // min-heap
	}
	return h[i].o > h[j].o
}
func (h *legacyEAIHeap) Push(x any) { *h = append(*h, x.(legacyEAIEntry)) }
func (h *legacyEAIHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func legacyEAI(m *core.Model, o string, psi [3]float64, nObj float64) float64 {
	oid, ok := m.Idx.ObjectID(o)
	if !ok {
		return 0
	}
	mu := m.MuAt(oid)
	cur := maxOf(mu)
	exp := 0.0
	for ans := range mu {
		pAns := m.AnswerLikelihoodAt(oid, psi, ans)
		if pAns <= 0 {
			continue
		}
		exp += pAns * m.CondMaxConfidenceAt(oid, psi, ans)
	}
	score := (exp - cur) / nObj
	if score < 1e-9/nObj {
		score = 0
	}
	return score
}

func legacyEAIAssign(e EAI, ctx *Context) (map[string][]string, EAIStats) {
	m := ctx.Res.Model.(*core.Model)
	var stats EAIStats
	nObj := float64(len(ctx.Idx.Objects))
	out := make(map[string][]string, len(ctx.Workers))
	if len(ctx.Workers) == 0 || ctx.K <= 0 || nObj == 0 {
		return out, stats
	}

	ub := make(legacyUEAIHeap, 0, len(ctx.Idx.Objects))
	ubOf := make(map[string]float64, len(ctx.Idx.Objects))
	for _, o := range ctx.Idx.Objects {
		oid, ok := m.Idx.ObjectID(o)
		if !ok {
			continue
		}
		b := (1 - m.MaxConfidenceAt(oid)) / (nObj * (m.DAt(oid) + 1))
		ubOf[o] = b
		ub = append(ub, legacyUEAIEntry{b, o})
	}
	heap.Init(&ub)

	workers := append([]string(nil), ctx.Workers...)
	sort.SliceStable(workers, func(i, j int) bool {
		return m.PsiOf(workers[i])[0] > m.PsiOf(workers[j])[0]
	})
	heaps := make([]legacyEAIHeap, len(workers))

	full := func() bool {
		for i := range heaps {
			if len(heaps[i]) < ctx.K {
				return false
			}
		}
		return true
	}
	minOverAll := func() float64 {
		mn := 0.0
		first := true
		for i := range heaps {
			if len(heaps[i]) == 0 {
				return 0
			}
			if first || heaps[i][0].score < mn {
				mn = heaps[i][0].score
				first = false
			}
		}
		return mn
	}

	for ub.Len() > 0 {
		top := heap.Pop(&ub).(legacyUEAIEntry)
		if !e.DisablePruning && full() && minOverAll() > top.ub {
			break
		}
		cur := top.o
		for wi := 0; wi < len(workers) && cur != ""; wi++ {
			w := workers[wi]
			if hasAnswered(ctx.Idx, w, cur) {
				continue
			}
			if !e.DisablePruning && len(heaps[wi]) >= ctx.K && heaps[wi][0].score >= ubOf[cur] {
				stats.Pruned++
				continue
			}
			score := legacyEAI(m, cur, m.PsiOf(w), nObj)
			stats.Evaluated++
			if len(heaps[wi]) < ctx.K {
				heap.Push(&heaps[wi], legacyEAIEntry{score, cur})
				cur = ""
				break
			}
			if score > heaps[wi][0].score {
				displaced := heap.Pop(&heaps[wi]).(legacyEAIEntry)
				heap.Push(&heaps[wi], legacyEAIEntry{score, cur})
				cur = displaced.o
			}
		}
	}
	for wi, w := range workers {
		objs := make([]string, 0, len(heaps[wi]))
		for _, en := range heaps[wi] {
			objs = append(objs, en.o)
		}
		sort.Strings(objs)
		out[w] = objs
	}
	return out, stats
}

// --- Equivalence and plan-reuse tests ------------------------------------

// planFixtures covers both seed datasets, with and without pre-seeded
// worker answers, across a few seeds.
func planFixtures(t testing.TB) []*fixture {
	t.Helper()
	var fs []*fixture
	for _, seed := range []int64{1, 5, 21} {
		for _, withAnswers := range []bool{false, true} {
			fs = append(fs, newFixture(t, seed, withAnswers))
			fs = append(fs, newBirthPlacesFixture(t, seed, withAnswers))
		}
	}
	return fs
}

// newBirthPlacesFixture mirrors newFixture on the BirthPlaces workload.
func newBirthPlacesFixture(t testing.TB, seed int64, withAnswers bool) *fixture {
	t.Helper()
	ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: seed, Scale: 0.04})
	pool := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: seed, Count: 6, Pi: 0.75})
	names := make([]string, len(pool))
	for i, w := range pool {
		names[i] = w.Name
	}
	if withAnswers {
		idx0 := data.NewIndex(ds)
		for i, o := range idx0.Objects {
			if i >= 12 {
				break
			}
			w := pool[i%len(pool)]
			ds.Answers = append(ds.Answers, data.Answer{
				Object: o, Worker: w.Name, Value: idx0.View(o).CI.Values[0],
			})
		}
	}
	idx := data.NewIndex(ds)
	res := infer.NewTDH().Infer(idx)
	return &fixture{
		ds: ds, idx: idx, res: res,
		m:       res.Model.(*core.Model),
		workers: names,
	}
}

// TestPlannerEAIBitIdenticalToLegacy pins the tentpole's acceptance bar:
// the snapshot-resident planner must reproduce the pre-planner Algorithm 1
// assignments exactly — same (worker, object) sets, same order, same
// evaluation/pruning counts — on both seed datasets, with and without
// pruning, with and without a pre-attached plan.
func TestPlannerEAIBitIdenticalToLegacy(t *testing.T) {
	for fi, f := range planFixtures(t) {
		for _, e := range []EAI{{}, {DisablePruning: true}} {
			for _, preplanned := range []bool{false, true} {
				ctx := f.ctx(3)
				if preplanned {
					ctx.Plan = NewPlan(f.idx, f.res)
				}
				got, gotStats := e.AssignWithStats(ctx)
				want, wantStats := legacyEAIAssign(e, f.ctx(3))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("fixture %d (%s, preplanned=%v): planner %v != legacy %v",
						fi, e.Name(), preplanned, got, want)
				}
				// The legacy scan has no no-flip certificate: Settled is the
				// planner's own, a subset of what both evaluated.
				if gotStats.Evaluated != wantStats.Evaluated || gotStats.Pruned != wantStats.Pruned || gotStats.Settled > gotStats.Evaluated {
					t.Fatalf("fixture %d (%s, preplanned=%v): stats %+v != legacy %+v",
						fi, e.Name(), preplanned, gotStats, wantStats)
				}
			}
		}
	}
}

// TestPlanReuseMatchesFresh: for every assigner, attaching the shared plan
// must not change the output relative to the per-call fallback build.
func TestPlanReuseMatchesFresh(t *testing.T) {
	f := newFixture(t, 31, true)
	plan := NewPlan(f.idx, f.res)
	for _, asg := range []Assigner{EAI{}, QASCA{}, ME{}, MB{}} {
		fresh := asg.Assign(f.ctx(2))
		withPlan := f.ctx(2)
		withPlan.Plan = plan
		reused := asg.Assign(withPlan)
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("%s: plan reuse changed output: %v vs %v", asg.Name(), fresh, reused)
		}
	}
}

// TestStalePlanIgnored: a plan belonging to a different snapshot (index or
// result) must be ignored, not silently used.
func TestStalePlanIgnored(t *testing.T) {
	f := newFixture(t, 41, true)
	other := newFixture(t, 42, false)
	stale := NewPlan(other.idx, other.res)
	for _, asg := range []Assigner{EAI{}, QASCA{}, ME{}} {
		ctx := f.ctx(2)
		ctx.Plan = stale
		got := asg.Assign(ctx)
		want := asg.Assign(f.ctx(2))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stale plan leaked into assignment: %v vs %v", asg.Name(), got, want)
		}
	}
}

// TestPlanPanicsOnForeignResult: a plan addresses its result's rows by the
// dense IDs of its own index, so NewPlan and Advance refuse a result shaped
// by another one — here a model fitted before the index grew by an object —
// instead of serving rows of the wrong objects.
func TestPlanPanicsOnForeignResult(t *testing.T) {
	f := newFixture(t, 51, true)
	ds2 := f.ds.Clone()
	ds2.Records = append(ds2.Records,
		data.Record{Object: "zz-new-object", Source: "s-new", Value: "x"},
		data.Record{Object: "zz-new-object", Source: "s-new-2", Value: "y"},
	)
	idx2 := data.NewIndex(ds2)
	plan := NewPlan(f.idx, f.res)
	for name, build := range map[string]func(){
		"NewPlan": func() { NewPlan(idx2, f.res) },
		"Advance": func() { plan.Advance(idx2, f.res, nil) },
	} {
		func() {
			defer func() {
				if recover() != foreignResult {
					t.Errorf("%s over a foreign result must panic with %q", name, foreignResult)
				}
			}()
			build()
		}()
	}
}

// TestPlanQASCADeterministicAcrossBuilds: the plan carries no sampling
// state, so QASCA stays seed-deterministic whether or not plans are shared.
func TestPlanQASCADeterministicAcrossBuilds(t *testing.T) {
	f := newFixture(t, 61, true)
	plan := NewPlan(f.idx, f.res)
	for i := 0; i < 3; i++ {
		ctx := f.ctx(2)
		ctx.Plan = plan
		a := QASCA{}.Assign(ctx)
		b := QASCA{}.Assign(f.ctx(2))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d: shared-plan QASCA diverged: %v vs %v", i, a, b)
		}
	}
}

// TestPlanImmutableUnderAssign: assigning for many workers must never
// mutate the shared plan's parts (the server serves one plan to all
// concurrent /task requests; the -race storm test covers the concurrent
// side, this pins the single-threaded contract).
func TestPlanImmutableUnderAssign(t *testing.T) {
	f := newFixture(t, 71, true)
	plan := NewPlan(f.idx, f.res)
	snap := plan.AppendParts(nil)
	for i := 0; i < 4; i++ {
		ctx := f.ctx(3)
		ctx.Plan = plan
		ctx.Workers = []string{fmt.Sprintf("cold-%d", i)}
		EAI{}.Assign(ctx)
		QASCA{}.Assign(ctx)
		ME{}.Assign(ctx)
	}
	if !reflect.DeepEqual(snap, plan.AppendParts(nil)) {
		t.Fatal("Assign mutated the shared plan")
	}
}
