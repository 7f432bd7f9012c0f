package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/assign"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/synth"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server, *data.Dataset) {
	t.Helper()
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 3, Scale: 0.06})
	s, err := New(Config{
		Dataset:  ds,
		Engine:   engine.NewCategorical(infer.NewTDH()),
		Assigner: assign.EAI{},
		K:        3,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, ds
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, payload any) *http.Response {
	t.Helper()
	buf, _ := json.Marshal(payload)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// fetchTasks GETs /task for a worker and fails the test on an empty reply.
func fetchTasks(t *testing.T, base, worker string) []Task {
	t.Helper()
	var taskResp struct {
		Worker string `json:"worker"`
		Tasks  []Task `json:"tasks"`
	}
	getJSON(t, base+fmt.Sprintf("/task?worker=%s", worker), &taskResp)
	return taskResp.Tasks
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil dataset must fail")
	}
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 1, Scale: 0.05})
	if _, err := New(Config{Dataset: ds}); err == nil {
		t.Fatal("nil engine must fail")
	}
	if _, err := New(Config{Dataset: ds, Engine: engine.NewCategorical(infer.Vote{})}); err == nil {
		t.Fatal("nil assigner must fail")
	}
}

func TestTaskAnswerFlow(t *testing.T) {
	_, ts, _ := newTestServer(t)

	tasks := fetchTasks(t, ts.URL, "w1")
	if len(tasks) == 0 || len(tasks) > 3 {
		t.Fatalf("tasks = %+v", tasks)
	}
	for _, task := range tasks {
		if len(task.Candidates) == 0 {
			t.Fatalf("task without candidates: %+v", task)
		}
	}
	// Idempotent until answered.
	again := fetchTasks(t, ts.URL, "w1")
	if len(again) != len(tasks) || again[0].Object != tasks[0].Object {
		t.Fatal("repeated /task must return the same pending assignment")
	}

	// Answer the first task.
	first := tasks[0]
	resp := postJSON(t, ts.URL+"/answer", data.Answer{
		Worker: "w1", Object: first.Object, Value: first.Candidates[0],
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer status %d", resp.StatusCode)
	}

	// Stats reflect the accepted answer immediately; after a refresh the
	// snapshot has folded it in as well.
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Answers != 1 {
		t.Fatalf("answers = %d", st.Answers)
	}
	if !st.HasGold || st.Quality["accuracy"] == 0 {
		t.Fatalf("stats missing quality: %+v", st)
	}
	postJSON(t, ts.URL+"/refresh", nil)
	getJSON(t, ts.URL+"/stats", &st)
	if st.Applied != 1 {
		t.Fatalf("applied = %d after refresh", st.Applied)
	}
}

func TestAnswerValidation(t *testing.T) {
	s, ts, _ := newTestServer(t)
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/answer", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Missing fields.
	if got := postJSON(t, ts.URL+"/answer", data.Answer{Worker: "w"}); got.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", got.StatusCode)
	}
	// Unknown object.
	if got := postJSON(t, ts.URL+"/answer", data.Answer{Worker: "w", Object: "ghost", Value: "v"}); got.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", got.StatusCode)
	}
	// Non-candidate value.
	obj := s.SortedObjects()[0]
	if got := postJSON(t, ts.URL+"/answer", data.Answer{Worker: "w", Object: obj, Value: "definitely-not-a-candidate"}); got.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", got.StatusCode)
	}
}

// TestUnassignedAnswerRejected: answers for objects never assigned to the
// submitting worker are rejected (422) unless the campaign runs with
// OpenAnswers.
func TestUnassignedAnswerRejected(t *testing.T) {
	s, ts, _ := newTestServer(t)
	obj := s.SortedObjects()[0]
	snap := s.Snapshot()
	val := snap.Idx.View(obj).CI.Values[0]
	got := postJSON(t, ts.URL+"/answer", data.Answer{Worker: "nobody", Object: obj, Value: val})
	if got.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unassigned answer status = %d, want 422", got.StatusCode)
	}
}

// TestDuplicateAnswerRejected: the same (worker, object) pair cannot be
// answered twice — the second submission gets 409 instead of being
// double-counted by inference.
func TestDuplicateAnswerRejected(t *testing.T) {
	_, ts, _ := newTestServer(t)
	tasks := fetchTasks(t, ts.URL, "dupw")
	if len(tasks) == 0 {
		t.Fatal("no tasks assigned")
	}
	a := data.Answer{Worker: "dupw", Object: tasks[0].Object, Value: tasks[0].Candidates[0]}
	if got := postJSON(t, ts.URL+"/answer", a); got.StatusCode != http.StatusOK {
		t.Fatalf("first answer status = %d", got.StatusCode)
	}
	if got := postJSON(t, ts.URL+"/answer", a); got.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate answer status = %d, want 409", got.StatusCode)
	}
	// A different value for the same object is still a duplicate.
	if len(tasks[0].Candidates) > 1 {
		a.Value = tasks[0].Candidates[1]
		if got := postJSON(t, ts.URL+"/answer", a); got.StatusCode != http.StatusConflict {
			t.Fatalf("duplicate answer (other value) status = %d, want 409", got.StatusCode)
		}
	}
}

// TestPendingPrunesStaleObjects: a pending entry whose object the current
// snapshot cannot serve (nil view) is pruned instead of wedging the worker
// behind an empty-but-nonempty pending list forever.
func TestPendingPrunesStaleObjects(t *testing.T) {
	s, ts, _ := newTestServer(t)
	sh := s.workers.shardFor("wedged")
	sh.mu.Lock()
	sh.pending["wedged"] = []string{"no-such-object"}
	sh.mu.Unlock()

	tasks := fetchTasks(t, ts.URL, "wedged")
	if len(tasks) == 0 {
		t.Fatal("worker stayed wedged behind a stale pending entry")
	}
	for _, task := range tasks {
		if task.Object == "no-such-object" {
			t.Fatal("stale object served as a task")
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, o := range sh.pending["wedged"] {
		if o == "no-such-object" {
			t.Fatal("stale object still pending")
		}
	}
}

func TestTruthsConfidenceTrust(t *testing.T) {
	s, ts, _ := newTestServer(t)
	var truths map[string]string
	getJSON(t, ts.URL+"/truths", &truths)
	if len(truths) != len(s.SortedObjects()) {
		t.Fatalf("truths = %d objects", len(truths))
	}
	obj := s.SortedObjects()[0]
	var conf map[string]float64
	getJSON(t, ts.URL+"/confidence?object="+obj, &conf)
	sum := 0.0
	for _, p := range conf {
		sum += p
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("confidence not normalized: %v", conf)
	}
	if resp := getJSON(t, ts.URL+"/confidence?object=ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var trust struct {
		Sources map[string]float64 `json:"sources"`
		Workers map[string]float64 `json:"workers"`
	}
	getJSON(t, ts.URL+"/trust", &trust)
	if len(trust.Sources) == 0 {
		t.Fatal("no source trust")
	}
}

func TestMissingWorkerParam(t *testing.T) {
	_, ts, _ := newTestServer(t)
	if resp := getJSON(t, ts.URL+"/task", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestRefresh(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var out struct {
		Refreshed bool  `json:"refreshed"`
		Runs      int64 `json:"inference_runs"`
	}
	resp, err := http.Post(ts.URL+"/refresh", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Refreshed || out.Runs < 2 {
		t.Fatalf("refresh = %+v", out)
	}
}

// TestCampaignImprovesAccuracy drives a full simulated campaign through the
// HTTP API: simulated workers poll /task, answer per their accuracy, and
// the campaign accuracy must improve — the end-to-end version of the
// paper's Section 5.5 experiment.
func TestCampaignImprovesAccuracy(t *testing.T) {
	_, ts, ds := newTestServer(t)
	pool := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: 3, Count: 8, Pi: 0.85})
	rng := rand.New(rand.NewSource(99))

	var st0 Stats
	getJSON(t, ts.URL+"/stats", &st0)

	idx := data.NewIndex(ds)
	for round := 0; round < 6; round++ {
		for _, w := range pool {
			for _, task := range fetchTasks(t, ts.URL, w.Name) {
				ov := idx.View(task.Object)
				if ov == nil {
					continue
				}
				ans := w.Answer(rng, ds, ov)
				postJSON(t, ts.URL+"/answer", data.Answer{Worker: w.Name, Object: task.Object, Value: ans})
			}
		}
		// Refresh between rounds so assignment sees the new answers, as the
		// paper's round-based campaign does.
		postJSON(t, ts.URL+"/refresh", nil)
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Answers == 0 {
		t.Fatal("campaign collected no answers")
	}
	if st.Applied != st.Answers {
		t.Fatalf("refresh must fold all answers: applied %d, accepted %d", st.Applied, st.Answers)
	}
	if st.Quality["accuracy"] <= st0.Quality["accuracy"] {
		t.Fatalf("campaign should improve accuracy: %v -> %v", st0.Quality["accuracy"], st.Quality["accuracy"])
	}
}

// TestConcurrentAnswers exercises the sharded ingest path: parallel workers
// fetch their assignments and submit answers; every answer is accepted
// exactly once.
func TestConcurrentAnswers(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var wg sync.WaitGroup
	const n = 16
	accepted := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worker := fmt.Sprintf("cw-%d", i)
			for _, task := range fetchTasks(t, ts.URL, worker) {
				resp := postJSON(t, ts.URL+"/answer", data.Answer{
					Worker: worker, Object: task.Object, Value: task.Candidates[0],
				})
				if resp.StatusCode == http.StatusOK {
					accepted[i]++
				}
			}
		}(i)
	}
	wg.Wait()
	total := 0
	for _, c := range accepted {
		total += c
	}
	if total == 0 {
		t.Fatal("no answers accepted")
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Answers != total {
		t.Fatalf("answers = %d, want %d", st.Answers, total)
	}
}
