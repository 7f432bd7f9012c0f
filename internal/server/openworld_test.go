package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/hierarchy"
	"repro/internal/infer"
)

func openWorldDataset() *data.Dataset {
	h := hierarchy.New(hierarchy.Root)
	h.MustAdd("EU", hierarchy.Root)
	h.MustAdd("US", hierarchy.Root)
	for i := 0; i < 12; i++ {
		h.MustAdd(fmt.Sprintf("eu-city-%d", i), "EU")
		h.MustAdd(fmt.Sprintf("us-city-%d", i), "US")
	}
	h.Freeze()
	ds := &data.Dataset{Name: "openworld", H: h, Truth: map[string]string{}}
	for i := 0; i < 3; i++ {
		o := fmt.Sprintf("hq-%02d", i)
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "seed-src-a", Value: fmt.Sprintf("eu-city-%d", i)},
			data.Record{Object: o, Source: "seed-src-b", Value: fmt.Sprintf("us-city-%d", i)},
		)
	}
	return ds
}

func newOpenWorldServer(t *testing.T, log EventSink) (*Server, string) {
	t.Helper()
	s, err := New(Config{
		Dataset:     openWorldDataset(),
		Engine:      engine.NewCategorical(infer.NewTDH()),
		Assigner:    assign.EAI{},
		K:           3,
		Seed:        11,
		OpenAnswers: true,
		Log:         log,
		Policy:      RefitPolicy{MaxAnswers: 32, MaxStaleness: 20 * time.Millisecond, BatchSize: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// TestAddObjectAndRecordFoldIntoSnapshot: mutations become visible — the
// object taskable, in /truths, with confidences — after the next snapshot.
func TestAddObjectAndRecordFoldIntoSnapshot(t *testing.T) {
	s, base := newOpenWorldServer(t, nil)

	if resp := postJSON(t, base+"/objects", AddObjectRequest{
		Object: "hq-new", Candidates: []string{"eu-city-1", "us-city-1"},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /objects: %d", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/records", data.Record{
		Object: "hq-new", Source: "late-src", Value: "eu-city-1",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /records: %d", resp.StatusCode)
	}
	// A record may also define a brand-new object on its own.
	if resp := postJSON(t, base+"/records", data.Record{
		Object: "hq-implicit", Source: "late-src", Value: "us-city-2",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /records implicit: %d", resp.StatusCode)
	}

	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	truths := s.Truths()
	if _, ok := truths["hq-new"]; !ok {
		t.Fatalf("hq-new missing from truths: %v", truths)
	}
	if got := truths["hq-implicit"]; got != "us-city-2" {
		t.Fatalf("hq-implicit truth = %q, want us-city-2", got)
	}

	// The new object is assignable: a cold worker's EAI plan ranks fresh
	// objects (no answers, low D) near the top.
	var conf map[string]float64
	if resp := getJSON(t, base+"/confidence?object=hq-new", &conf); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /confidence: %d", resp.StatusCode)
	}
	if len(conf) != 2 {
		t.Fatalf("confidence = %v", conf)
	}
	tasks := fetchTasks(t, base, "cold-worker")
	if len(tasks) == 0 {
		t.Fatal("no tasks for cold worker")
	}

	// Answering the new object works end to end.
	if resp := postJSON(t, base+"/answer", data.Answer{
		Object: "hq-new", Worker: "cold-worker", Value: "eu-city-1",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /answer on grown object: %d", resp.StatusCode)
	}

	st := s.Stats()
	if st.AddedObjects != 1 || st.AddedRecords != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Objects != 5 {
		t.Fatalf("objects = %d, want 5", st.Objects)
	}
}

func TestMutationValidation(t *testing.T) {
	_, base := newOpenWorldServer(t, nil)

	// One field alone pushes the JSON body past maxBodyBytes.
	huge := strings.Repeat("x", maxBodyBytes)
	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"missing candidates", "/objects", AddObjectRequest{Object: "x"}, http.StatusBadRequest},
		{"missing object", "/objects", AddObjectRequest{Candidates: []string{"eu-city-1"}}, http.StatusBadRequest},
		{"out-of-hierarchy candidate", "/objects",
			AddObjectRequest{Object: "x", Candidates: []string{"atlantis"}}, http.StatusUnprocessableEntity},
		{"existing object", "/objects",
			AddObjectRequest{Object: "hq-00", Candidates: []string{"eu-city-1"}}, http.StatusConflict},
		{"record empty field", "/records", data.Record{Object: "x", Source: "s"}, http.StatusBadRequest},
		{"record out-of-hierarchy value", "/records",
			data.Record{Object: "x", Source: "s", Value: "atlantis"}, http.StatusUnprocessableEntity},
		{"record duplicate claim", "/records",
			data.Record{Object: "hq-00", Source: "seed-src-a", Value: "eu-city-2"}, http.StatusConflict},
		{"oversized object body", "/objects",
			AddObjectRequest{Object: huge, Candidates: []string{"eu-city-1"}}, http.StatusRequestEntityTooLarge},
		{"oversized record body", "/records",
			data.Record{Object: huge, Source: "s", Value: "eu-city-1"}, http.StatusRequestEntityTooLarge},
		{"oversized answer body", "/answer",
			data.Answer{Worker: huge, Object: "hq-00", Value: "eu-city-0"}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if resp := postJSON(t, base+tc.path, tc.body); resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Duplicates against this instance's own accepted additions (not yet
	// necessarily published) are also 409s.
	if resp := postJSON(t, base+"/objects", AddObjectRequest{Object: "once", Candidates: []string{"eu-city-1"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("first add: %d", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/objects", AddObjectRequest{Object: "once", Candidates: []string{"eu-city-2"}}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("second add: %d, want 409", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/records", data.Record{Object: "fresh", Source: "s1", Value: "eu-city-1"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("first record: %d", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/records", data.Record{Object: "fresh", Source: "s1", Value: "eu-city-2"}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate record: %d, want 409", resp.StatusCode)
	}
}

// failingSink fails the first append of each kind, then succeeds.
type failingSink struct {
	mu        sync.Mutex
	objFails  int
	recFails  int
	objEvents [][]string
	recEvents []data.Record
}

// Append accepts answers: the sink's failures are for mutations only.
func (f *failingSink) Append(data.Answer) error { return nil }

func (f *failingSink) AppendAddObject(o string, c []string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.objFails > 0 {
		f.objFails--
		return errors.New("disk on fire")
	}
	f.objEvents = append(f.objEvents, append([]string{o}, c...))
	return nil
}

func (f *failingSink) AppendAddRecord(r data.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.recFails > 0 {
		f.recFails--
		return errors.New("disk on fire")
	}
	f.recEvents = append(f.recEvents, r)
	return nil
}

// TestMutationLogFailureRollsBackReservation: a failed durable append
// returns 500 and releases the reservation so a retry can succeed.
func TestMutationLogFailureRollsBackReservation(t *testing.T) {
	sink := &failingSink{objFails: 1, recFails: 1}
	_, base := newOpenWorldServer(t, sink)

	obj := AddObjectRequest{Object: "retry-me", Candidates: []string{"eu-city-1"}}
	if resp := postJSON(t, base+"/objects", obj); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first attempt: %d, want 500", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/objects", obj); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry: %d, want 200", resp.StatusCode)
	}
	rec := data.Record{Object: "retry-me", Source: "s1", Value: "eu-city-1"}
	if resp := postJSON(t, base+"/records", rec); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first record attempt: %d, want 500", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/records", rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("record retry: %d, want 200", resp.StatusCode)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.objEvents) != 1 || len(sink.recEvents) != 1 {
		t.Fatalf("sink saw %d/%d events", len(sink.objEvents), len(sink.recEvents))
	}
}

// TestConcurrentGrowthUnderLoad is the -race stress: objects and records
// stream in while workers hammer /task + /answer; every acknowledged
// mutation must be present after a final refresh, and inference keeps
// covering the whole grown corpus.
func TestConcurrentGrowthUnderLoad(t *testing.T) {
	s, base := newOpenWorldServer(t, nil)

	const nNew = 24
	const nWorkers = 8
	var wg sync.WaitGroup

	// Feeder: grow the campaign object by object, each with a record.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nNew; i++ {
			o := fmt.Sprintf("grown-%02d", i)
			resp := postJSON(t, base+"/objects", AddObjectRequest{
				Object:     o,
				Candidates: []string{fmt.Sprintf("eu-city-%d", i%12), fmt.Sprintf("us-city-%d", i%12)},
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("add %s: %d", o, resp.StatusCode)
			}
			resp = postJSON(t, base+"/records", data.Record{
				Object: o, Source: "stream-src", Value: fmt.Sprintf("eu-city-%d", i%12),
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("record %s: %d", o, resp.StatusCode)
			}
		}
	}()

	// Workers: pull tasks and answer whatever is assigned.
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := fmt.Sprintf("w-%d", w)
			for round := 0; round < 12; round++ {
				for _, task := range fetchTasks(t, base, worker) {
					if len(task.Candidates) == 0 {
						continue
					}
					resp := postJSON(t, base+"/answer", data.Answer{
						Object: task.Object, Worker: worker, Value: task.Candidates[w%len(task.Candidates)],
					})
					// 409 if a concurrent retry answered it first; both fine.
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
						t.Errorf("answer %s/%s: %d", worker, task.Object, resp.StatusCode)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	truths := s.Truths()
	for i := 0; i < nNew; i++ {
		o := fmt.Sprintf("grown-%02d", i)
		if _, ok := truths[o]; !ok {
			t.Fatalf("acknowledged object %s missing from truths", o)
		}
	}
	st := s.Stats()
	if st.AddedObjects != nNew || st.AddedRecords != nNew {
		t.Fatalf("stats lost mutations: %+v", st)
	}
	if st.Objects != 3+nNew {
		t.Fatalf("objects = %d, want %d", st.Objects, 3+nNew)
	}
}
