package assign

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/infer"
	"repro/internal/synth"
)

// fixture builds an indexed synthetic dataset with a fitted TDH model and a
// worker pool, shared by the assigner tests.
type fixture struct {
	ds      *data.Dataset
	idx     *data.Index
	res     *infer.Result
	m       *core.Model
	workers []string
}

func newFixture(t testing.TB, seed int64, withAnswers bool) *fixture {
	t.Helper()
	ds := synth.Heritages(synth.HeritagesConfig{Seed: seed, Scale: 0.08})
	pool := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: seed, Count: 6, Pi: 0.75})
	names := make([]string, len(pool))
	for i, w := range pool {
		names[i] = w.Name
	}
	if withAnswers {
		// Pre-seed a few answers so worker trust is estimable and
		// HasAnswered exclusions are exercised.
		idx0 := data.NewIndex(ds)
		rng := rand.New(rand.NewSource(seed))
		for i, o := range idx0.Objects {
			if i >= 12 {
				break
			}
			w := pool[i%len(pool)]
			ds.Answers = append(ds.Answers, data.Answer{
				Object: o, Worker: w.Name, Value: w.Answer(rng, ds, idx0.View(o)),
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

func (f *fixture) ctx(k int) *Context {
	return &Context{Idx: f.idx, Res: f.res, Workers: f.workers, K: k, Seed: 99}
}

// hasAnswered is Index.HasAnsweredAt by name; an unknown worker or object
// has answered nothing.
func hasAnswered(idx *data.Index, w, o string) bool {
	wid, ok := idx.WorkerID(w)
	if !ok {
		return false
	}
	oid, ok := idx.ObjectID(o)
	return ok && idx.HasAnsweredAt(wid, oid)
}

// checkAssignment verifies the structural contract every assigner must
// honor: at most K tasks per worker, no task a worker already answered,
// and no unknown objects.
func checkAssignment(t *testing.T, f *fixture, tasks map[string][]string, k int, distinct bool) {
	t.Helper()
	seen := map[string]string{}
	for w, objs := range tasks {
		if len(objs) > k {
			t.Fatalf("worker %s got %d > %d tasks", w, len(objs), k)
		}
		for _, o := range objs {
			if f.idx.View(o) == nil {
				t.Fatalf("unknown object %q assigned", o)
			}
			if hasAnswered(f.idx, w, o) {
				t.Fatalf("worker %s re-assigned already answered %s", w, o)
			}
			if prev, dup := seen[o]; dup && distinct {
				t.Fatalf("object %s assigned to both %s and %s", o, prev, w)
			}
			seen[o] = w
		}
	}
	if len(seen) == 0 {
		t.Fatal("empty assignment")
	}
}

func TestEAIAssignmentContract(t *testing.T) {
	f := newFixture(t, 5, true)
	tasks, stats := EAI{}.AssignWithStats(f.ctx(3))
	checkAssignment(t, f, tasks, 3, true) // EAI: one worker per object per round
	if stats.Evaluated == 0 {
		t.Fatal("no EAI evaluations recorded")
	}
	// Every worker gets exactly K tasks when there are enough objects.
	for _, w := range f.workers {
		if len(tasks[w]) != 3 {
			t.Fatalf("worker %s got %d tasks, want 3", w, len(tasks[w]))
		}
	}
}

// TestEAIPruningEquivalence: the UEAI bound is an optimization, not a
// policy change — with and without pruning the selected (worker, object)
// sets must match.
func TestEAIPruningEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := newFixture(t, seed, true)
		withP, sWith := EAI{}.AssignWithStats(f.ctx(2))
		noP, sNo := EAI{DisablePruning: true}.AssignWithStats(f.ctx(2))
		for _, w := range f.workers {
			a := append([]string(nil), withP[w]...)
			b := append([]string(nil), noP[w]...)
			sort.Strings(a)
			sort.Strings(b)
			if len(a) != len(b) {
				t.Fatalf("seed %d worker %s: pruned %v vs full %v", seed, w, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d worker %s: pruned %v vs full %v", seed, w, a, b)
				}
			}
		}
		if sWith.Evaluated > sNo.Evaluated {
			t.Fatalf("pruning must not evaluate more: %d > %d", sWith.Evaluated, sNo.Evaluated)
		}
	}
}

// TestLemma41UpperBound verifies Lemma 4.1 on live model state: for every
// (worker, object) pair, EAI(w,o) <= UEAI(o).
func TestLemma41UpperBound(t *testing.T) {
	f := newFixture(t, 7, true)
	nObj := len(f.idx.Objects)
	for _, w := range f.workers {
		for i, o := range f.idx.Objects {
			if i%3 != 0 { // sample for speed
				continue
			}
			eai := eaiAt(f.m, i, f.m.PsiOf(w), float64(nObj))
			ub := (1 - f.m.MaxConfidence(o)) / (float64(nObj) * (f.m.DOf(o) + 1))
			if eai > ub+1e-12 {
				t.Fatalf("EAI(%s,%s)=%v exceeds UEAI=%v", w, o, eai, ub)
			}
		}
	}
}

// TestQuickEAINonNegativeBounded: EAI scores are non-negative (after the
// noise clamp) and bounded by 1/|O| on random fixtures.
func TestQuickEAINonNegativeBounded(t *testing.T) {
	f := func(seedRaw uint8) bool {
		seed := int64(seedRaw%5) + 1
		fx := newFixture(t, seed, seedRaw%2 == 0)
		nObj := len(fx.idx.Objects)
		for i := range fx.idx.Objects {
			if i%7 != 0 {
				continue
			}
			e := eaiAt(fx.m, i, fx.m.PsiOf(fx.workers[int(seedRaw)%len(fx.workers)]), float64(nObj))
			if e < 0 || e > 1.0/float64(nObj)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestMEAssignsHighestEntropy(t *testing.T) {
	f := newFixture(t, 9, false)
	tasks := ME{}.Assign(f.ctx(2))
	checkAssignment(t, f, tasks, 2, true)
	// The globally most-entropic object must be assigned to someone.
	best, bestH := "", -1.0
	for oid, o := range f.idx.Objects {
		h := entropy(f.res.ConfidenceAt(oid))
		if h > bestH {
			best, bestH = o, h
		}
	}
	found := false
	for _, objs := range tasks {
		for _, o := range objs {
			if o == best {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("max-entropy object %s not assigned", best)
	}
}

func TestQASCAContract(t *testing.T) {
	f := newFixture(t, 11, true)
	tasks := QASCA{}.Assign(f.ctx(2))
	checkAssignment(t, f, tasks, 2, false) // QASCA may repeat across workers
	// Determinism for a fixed seed.
	tasks2 := QASCA{}.Assign(f.ctx(2))
	for _, w := range f.workers {
		if len(tasks[w]) != len(tasks2[w]) {
			t.Fatal("QASCA not deterministic under fixed seed")
		}
		for i := range tasks[w] {
			if tasks[w][i] != tasks2[w][i] {
				t.Fatal("QASCA not deterministic under fixed seed")
			}
		}
	}
}

func TestMBUsesDOCSState(t *testing.T) {
	f := newFixture(t, 13, false)
	docsRes := infer.DOCS{}.Infer(f.idx)
	ctx := &Context{Idx: f.idx, Res: docsRes, Workers: f.workers, K: 2, Seed: 1}
	tasks := MB{}.Assign(ctx)
	if len(tasks) == 0 {
		t.Fatal("MB produced nothing")
	}
	for w, objs := range tasks {
		if len(objs) > 2 {
			t.Fatalf("worker %s over-assigned", w)
		}
	}
	// MB also runs without DOCS state (fallback path).
	ctx2 := f.ctx(2)
	mbTasks := MB{}.Assign(ctx2)
	if len(mbTasks) == 0 {
		t.Fatal("MB fallback produced nothing")
	}
}

func TestEstimateImprovement(t *testing.T) {
	f := newFixture(t, 15, true)
	ctx := f.ctx(2)
	eai := EAI{}
	tasks := eai.Assign(ctx)
	est := eai.EstimateImprovement(ctx, tasks)
	if est < 0 {
		t.Fatalf("EAI estimate negative: %v", est)
	}
	q := QASCA{}
	qTasks := q.Assign(ctx)
	qEst := q.EstimateImprovement(ctx, qTasks)
	if qEst < 0 {
		t.Fatalf("QASCA estimate negative: %v", qEst)
	}
	// QASCA ignores claim-count damping, so its per-task estimate is
	// systematically at least as large as EAI's on the same state.
	if qEst == 0 && est > 0 {
		t.Fatal("suspicious: QASCA estimates zero while EAI is positive")
	}
}

func TestEmptyContexts(t *testing.T) {
	f := newFixture(t, 17, false)
	for _, asg := range []Assigner{EAI{}, ME{}, QASCA{}, MB{}} {
		noWorkers := asg.Assign(&Context{Idx: f.idx, Res: f.res, Workers: nil, K: 3})
		if len(noWorkers) != 0 {
			t.Fatalf("%s: no workers must yield no tasks", asg.Name())
		}
		got := asg.Assign(&Context{Idx: f.idx, Res: f.res, Workers: f.workers, K: 0})
		total := 0
		for _, objs := range got {
			total += len(objs)
		}
		if total != 0 {
			t.Fatalf("%s: k=0 must yield no tasks", asg.Name())
		}
	}
}

func TestWorkersSortedByReliabilityGetTasksFirst(t *testing.T) {
	// With more demand than supply (k × workers > objects), EAI must fill
	// the most reliable workers first.
	ds := &data.Dataset{Name: "small", Truth: map[string]string{}}
	for i := 0; i < 4; i++ {
		o := "o" + string(rune('0'+i))
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "s1", Value: "a"},
			data.Record{Object: o, Source: "s2", Value: "b"},
		)
	}
	// Worker histories: w-good answered lots (high ψ1 estimable), w-new none.
	idx := data.NewIndex(ds)
	res := infer.NewTDH().Infer(idx)
	ctx := &Context{Idx: idx, Res: res, Workers: []string{"w-a", "w-b"}, K: 4, Seed: 1}
	tasks := EAI{}.Assign(ctx)
	total := 0
	for _, objs := range tasks {
		total += len(objs)
	}
	if total != 4 {
		t.Fatalf("4 objects must all be assigned once, got %d", total)
	}
}
