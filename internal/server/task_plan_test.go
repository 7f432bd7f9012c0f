package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/assign"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/synth"
)

// partialInferencer wraps an inferencer and publishes less than its model
// holds, the way a custom or partial implementation might: its rows are a
// partialRows over the inner result's.
type partialInferencer struct {
	inner infer.Inferencer
}

func (p partialInferencer) Name() string { return "PARTIAL(" + p.inner.Name() + ")" }

func (p partialInferencer) Infer(idx *data.Index) *infer.Result {
	res := p.inner.Infer(idx)
	res.Rows = partialRows{res.Rows}
	return res
}

// partialRows truncates the first object's row to one entry and publishes
// no row for the second; every other row is the wrapped Dense's.
type partialRows struct{ infer.Dense }

func (p partialRows) Row(oid int) []float64 {
	switch row := p.Dense.Row(oid); oid {
	case 0:
		return row[:min(len(row), 1)]
	case 1:
		return nil
	default:
		return row
	}
}

// TestConfidencePartialResult is the regression test for the /confidence
// panic: with a missing or short confidence row the handler must answer
// 200 with zeros for the missing mass instead of panicking on conf[i].
func TestConfidencePartialResult(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.05})
	s, err := New(Config{
		Dataset:  ds,
		Engine:   engine.NewCategorical(partialInferencer{inner: infer.NewTDH()}),
		Assigner: assign.ME{}, // plan-only assigner; tolerates partial rows
		K:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	objs := s.SortedObjects()
	truncated, missing := objs[0], objs[1]
	for _, tc := range []struct {
		object string
		kind   string
	}{
		{truncated, "truncated"},
		{missing, "missing"},
		{objs[2], "intact"},
	} {
		req := httptest.NewRequest("GET", "/confidence?object="+tc.object, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // pre-fix: panics here for truncated/missing
		if rec.Code != http.StatusOK {
			t.Fatalf("%s row: status %d: %s", tc.kind, rec.Code, rec.Body.String())
		}
	}

	// The payload must still cover every candidate, zero-filled where the
	// inferencer published nothing.
	var conf map[string]float64
	req := httptest.NewRequest("GET", "/confidence?object="+missing, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if err := jsonDecode(rec, &conf); err != nil {
		t.Fatal(err)
	}
	ov := s.Snapshot().Idx.View(missing)
	if len(conf) != len(ov.CI.Values) {
		t.Fatalf("got %d candidates, want %d", len(conf), len(ov.CI.Values))
	}
	for v, c := range conf {
		if c != 0 {
			t.Fatalf("missing row must read as zeros, got %s=%v", v, c)
		}
	}

	// ME ranks the partial rows with the rest: a /task still assigns.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/task?worker=w1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/task over partial rows: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestTaskSeedDecorrelatesWorkers: same (seed, round, worker) must be
// deterministic — a retrying worker re-derives its assignment — while
// different workers in the same round must draw different sampling seeds.
func TestTaskSeedDecorrelatesWorkers(t *testing.T) {
	if a, b := taskSeed(7, 3, "alice"), taskSeed(7, 3, "alice"); a != b {
		t.Fatalf("same worker, same round: %d != %d", a, b)
	}
	if a, b := taskSeed(7, 3, "alice"), taskSeed(7, 3, "bob"); a == b {
		t.Fatal("different workers in one round must not share a sampling seed")
	}
	if a, b := taskSeed(7, 3, "alice"), taskSeed(7, 4, "alice"); a == b {
		t.Fatal("consecutive rounds must reseed")
	}
}

// TestQASCASamplingVariesAcrossWorkers: the observable end of the seed bug.
// With the round-only seed every cold worker in a round received QASCA's
// identical "sampled" task list; with the worker-salted seed the lists must
// vary across a pool of cold workers.
func TestQASCASamplingVariesAcrossWorkers(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 11, Scale: 0.08})
	s, err := New(Config{
		Dataset:  ds,
		Engine:   engine.NewCategorical(infer.NewTDH()),
		Assigner: assign.QASCA{},
		K:        4,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lists := map[string]int{}
	for i := 0; i < 20; i++ {
		tasks := fetchTasks(t, ts.URL, fmt.Sprintf("cold-%02d", i))
		if len(tasks) == 0 {
			t.Fatalf("worker %d got no tasks", i)
		}
		key := ""
		for _, task := range tasks {
			key += task.Object + "|"
		}
		lists[key]++
	}
	if len(lists) < 2 {
		t.Fatalf("20 cold workers all drew the identical QASCA sample list — seeds are correlated")
	}

	// Same-worker retry idempotency: a second /task returns the pending
	// assignment unchanged.
	a := fetchTasks(t, ts.URL, "cold-00")
	b := fetchTasks(t, ts.URL, "cold-00")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("retry changed the assignment: %v vs %v", a, b)
	}
}

// TestTaskStormSharedPlan hammers one snapshot's shared plan with many
// concurrent cold-worker /task requests (run under -race in CI): the plan
// must never be mutated — no part it holds moves, and it holds EAI's — and
// every worker must get a valid assignment.
func TestTaskStormSharedPlan(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 17, Scale: 0.08})
	s, err := New(Config{
		Dataset:  ds,
		Engine:   engine.NewCategorical(infer.NewTDH()),
		Assigner: assign.EAI{},
		K:        3,
		Seed:     17,
		// Disable background refits so every request hits the same snapshot.
		Policy: RefitPolicy{MaxAnswers: -1, MaxStaleness: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	snap := s.Snapshot()
	plan := snap.Plan()
	before := plan.AppendParts(nil)
	if fresh := assign.PlanFor(assign.EAI{}, snap.Idx, snap.Res).AppendParts(nil); !reflect.DeepEqual(before, fresh) || len(before) < 6*snap.Idx.NumObjects() {
		t.Fatalf("the served plan's parts (%d values) are not the EAI plan PlanFor builds (%d values)", len(before), len(fresh))
	}

	const workers = 48
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worker := fmt.Sprintf("storm-%02d", i)
			for rep := 0; rep < 3; rep++ {
				req := httptest.NewRequest("GET", "/task?worker="+worker, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("worker %s: status %d", worker, rec.Code)
					return
				}
				var resp struct {
					Tasks []Task `json:"tasks"`
				}
				if err := jsonDecode(rec, &resp); err != nil {
					errs <- err
					return
				}
				if len(resp.Tasks) == 0 || len(resp.Tasks) > 3 {
					errs <- fmt.Errorf("worker %s: %d tasks, want 1..3", worker, len(resp.Tasks))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if s.Snapshot() != snap {
		t.Fatal("no refit was configured, yet the snapshot changed")
	}
	if snap.Plan() != plan {
		t.Fatal("snapshot rebuilt its plan mid-storm")
	}
	if !reflect.DeepEqual(plan.AppendParts(nil), before) {
		t.Fatal("concurrent /task storm mutated the shared plan")
	}
}

// TestTaskServesPlanSnapshot: the snapshot the pipeline publishes carries a
// plan for exactly its own (Idx, Res) pair, and /task serves the same
// assignment that assigning directly against that snapshot produces.
func TestTaskServesPlanSnapshot(t *testing.T) {
	s, ts, _ := newTestServer(t)
	snap := s.Snapshot()
	plan := snap.Plan()
	if plan == nil || plan.Idx != snap.Idx || plan.Res != snap.Res {
		t.Fatal("published snapshot must carry a plan for its own (Idx, Res)")
	}
	if snap.Plan() != plan {
		t.Fatal("Snapshot.Plan must build at most once per snapshot")
	}
	const worker = "plan-probe"
	want := assign.EAI{}.Assign(&assign.Context{
		Idx:     snap.Idx,
		Res:     snap.Res,
		Plan:    plan,
		Workers: []string{worker},
		K:       3,
		Seed:    taskSeed(3, snap.Round, worker),
	})[worker]
	tasks := fetchTasks(t, ts.URL, worker)
	got := make([]string, len(tasks))
	for i, task := range tasks {
		got[i] = task.Object
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/task served %v, direct plan assignment gives %v", got, want)
	}
}

// jsonDecode decodes a recorded JSON response body.
func jsonDecode(rec *httptest.ResponseRecorder, into any) error {
	return json.Unmarshal(rec.Body.Bytes(), into)
}
