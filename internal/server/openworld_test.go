package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/hierarchy"
	"repro/internal/infer"
	"repro/internal/multitruth"
	"repro/internal/synth"
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

// TestRefitOnlyGrowthIsHeld: an engine that cannot grow its state (a
// categorical baseline, multi-truth discovery) keeps publishing the index
// its last fit was shaped by, so a grown object is not served — not by
// /task, /answer, /confidence nor the /stats object count — and stays
// behind the watermark until the refit that indexes it.
func TestRefitOnlyGrowthIsHeld(t *testing.T) {
	for _, eng := range []engine.Engine{
		engine.NewCategorical(infer.Vote{}),
		engine.NewMultiTruth(multitruth.LTM{Seed: 3}),
	} {
		t.Run(eng.Name(), func(t *testing.T) {
			s, err := New(Config{
				Dataset: openWorldDataset(), Engine: eng, Assigner: assign.ME{}, K: 10,
				OpenAnswers: true, Policy: RefitPolicy{MaxAnswers: -1, MaxStaleness: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			shaped := func(sn *Snapshot) *Snapshot {
				t.Helper()
				if sn.Res.Rows.Index() != sn.Idx || sn.St.Res().Rows.Index() != sn.Idx {
					t.Fatalf("snapshot round %d publishes rows shaped by another index", sn.Round)
				}
				return sn
			}
			tasked := func(worker string) bool {
				var resp struct{ Tasks []Task }
				getJSON(t, ts.URL+"/task?worker="+worker, &resp)
				for _, task := range resp.Tasks {
					if task.Object == "hq-new" {
						return true
					}
				}
				return false
			}
			boot := shaped(s.Snapshot())

			var seqs []int64
			for _, post := range []struct {
				path string
				body any
			}{
				{"/objects", AddObjectRequest{Object: "hq-new", Candidates: []string{"eu-city-5", "us-city-5"}}},
				{"/records", data.Record{Object: "hq-new", Source: "seed-src-a", Value: "eu-city-5"}},
			} {
				code, ack := postAck(t, ts.URL+post.path, post.body)
				if code != http.StatusOK {
					t.Fatalf("POST %s: %d", post.path, code)
				}
				seqs = append(seqs, ack.Seq)
			}
			held := shaped(waitApplied(t, s, 0, 2)) // the cycle that drained both has published
			if held.Idx != boot.Idx {
				t.Fatal("a held cycle published an extended index")
			}
			if wm := held.Watermark; wm >= seqs[0] {
				t.Fatalf("watermark %d covers held seq %d", wm, seqs[0])
			}
			if n := s.metrics.visibility.Count(); n != 0 {
				t.Fatalf("%d visibility observations before the refit, want 0", n)
			}
			answer := data.Answer{Worker: "w1", Object: "hq-new", Value: "eu-city-5"}
			if resp := postJSON(t, ts.URL+"/answer", answer); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("answer on a held object: %d, want 404", resp.StatusCode)
			}
			if resp := postJSON(t, ts.URL+"/objects", AddObjectRequest{Object: "hq-new", Candidates: []string{"eu-city-5"}}); resp.StatusCode != http.StatusConflict {
				t.Fatalf("re-adding a held object: %d, want 409", resp.StatusCode)
			}
			if resp := getJSON(t, ts.URL+"/confidence?object=hq-new", nil); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("confidence of a held object: %d, want 404", resp.StatusCode)
			}
			if tasked("w-before") {
				t.Fatal("/task handed out a held object")
			}
			if got, want := s.Stats().Objects, boot.Idx.NumObjects(); got != want {
				t.Fatalf("stats objects = %d before the refit, want %d", got, want)
			}

			refit, err := s.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			shaped(refit)
			if refit.Idx.View("hq-new") == nil {
				t.Fatal("the refit did not index the held object")
			}
			if refit.Watermark < seqs[1] {
				t.Fatalf("watermark %d after the refit, want >= %d", refit.Watermark, seqs[1])
			}
			if n := s.metrics.visibility.Count(); n != uint64(len(seqs)) {
				t.Fatalf("%d visibility observations after the refit, want one per item (%d)", n, len(seqs))
			}
			if got, want := s.Stats().Objects, boot.Idx.NumObjects()+1; got != want {
				t.Fatalf("stats objects = %d after the refit, want %d", got, want)
			}
			if resp := getJSON(t, ts.URL+"/confidence?object=hq-new", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("confidence after the refit: %d", resp.StatusCode)
			}
			if !tasked("w-after") {
				t.Fatal("/task does not hand out the object after the refit")
			}
			if resp := postJSON(t, ts.URL+"/answer", answer); resp.StatusCode != http.StatusOK {
				t.Fatalf("answer after the refit: %d", resp.StatusCode)
			}
			shaped(waitApplied(t, s, 1, 2))
		})
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

// growProbe runs check before every Grow: the moment a cycle extends the
// index, with the snapshot published before that cycle still current.
type growProbe struct {
	engine.Engine
	check func()
}

func (e growProbe) Grow(st engine.State, idx *data.Index, touched []int) (engine.State, bool) {
	e.check()
	return e.Engine.Grow(st, idx, touched)
}

// TestGrowthWaitsOutFit: growth changes the object set a fit reads, so a
// cycle that drains growth while a fit runs beside the coordinator first
// waits that fit out and lands it, then extends the index like any other
// cycle — no fit is discarded and none runs in its place. Run with -race
// over a folding (TDH), a refit-only (VOTE) and a numeric (CRH) campaign,
// with the growth and answers posted concurrently mid-fit: every accepted
// item is completed exactly once, the watermark never goes backwards, and
// no snapshot whose watermark covers the /objects item fails to index it
// (the landed fit must not publish the drained but unapplied cycle).
func TestGrowthWaitsOutFit(t *testing.T) {
	stock := synth.Stock(synth.StockConfig{Seed: 2, Symbols: 30})[1]
	crh, err := engine.New(engine.Numeric, "CRH", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	categorical := func(o string, ov *data.ObjectView, i int) data.Answer {
		return data.Answer{Worker: fmt.Sprintf("w%d", i), Object: o, Value: ov.CI.Values[i%len(ov.CI.Values)]}
	}
	openWorld := []any{
		AddObjectRequest{Object: "hq-new", Candidates: []string{"eu-city-5", "us-city-5"}},
		data.Record{Object: "hq-new", Source: "late-src", Value: "eu-city-5"},
	}
	for _, c := range []struct {
		eng    engine.Engine
		ds     *data.Dataset
		answer func(o string, ov *data.ObjectView, i int) data.Answer
		growth []any // POST /objects, then POST /records, both for object "hq-new"
		folds  bool
	}{
		{engine.NewCategorical(infer.NewTDH()), openWorldDataset(), categorical, openWorld, true},
		{engine.NewCategorical(infer.Vote{}), openWorldDataset(), categorical, openWorld, false},
		{crh, &data.Dataset{Name: "stock", Records: stock.Records}, func(o string, _ *data.ObjectView, i int) data.Answer {
			v := stock.Gold[o] + float64(i%3)
			return data.Answer{Worker: fmt.Sprintf("w%d", i), Object: o, Num: &v}
		}, []any{
			AddObjectRequest{Object: "hq-new", Candidates: []string{"101.5", "99"}},
			data.Record{Object: "hq-new", Source: "late-src", Value: "101.5"},
		}, true},
	} {
		t.Run(c.eng.Name(), func(t *testing.T) {
			var s *Server
			var objSeq atomic.Int64 // the /objects ack; 0 until it returns
			// covered reports a snapshot whose watermark covers the /objects
			// item while its index lacks hq-new.
			covered := func(sn *Snapshot) bool {
				o := objSeq.Load()
				return o > 0 && sn.Watermark >= o && sn.Idx.View("hq-new") == nil
			}
			calls, gate := &atomic.Int32{}, make(chan struct{})
			probe := growProbe{Engine: c.eng, check: func() {
				if sn := s.Snapshot(); covered(sn) {
					t.Errorf("round %d published watermark %d over the unapplied /objects item", sn.Round, sn.Watermark)
				}
			}}
			// Fit 2 is cut at 9 answers and only 8 items follow, so the
			// count trigger launches no fit 3.
			s, err := New(Config{
				Dataset: c.ds, Engine: gatedEngine{Engine: probe, gate: gate, calls: calls},
				Assigner: assign.ME{}, K: 10, OpenAnswers: true,
				Policy: RefitPolicy{MaxAnswers: 9, MaxStaleness: -1, BatchSize: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var opened sync.Once
			openGate := func() { opened.Do(func() { close(gate) }) }
			defer openGate() // before Close, which lands the fit in flight
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			objs, boot := s.SortedObjects(), s.Snapshot()
			answer := func(i int) data.Answer {
				o := objs[i%len(objs)]
				return c.answer(o, boot.Idx.View(o), i)
			}

			stop, watched := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(watched)
				var last int64
				for {
					select {
					case <-stop:
						return
					default:
					}
					sn := s.Snapshot()
					if sn.Watermark < last {
						t.Errorf("watermark went backwards: %d after %d", sn.Watermark, last)
						return
					}
					if covered(sn) {
						t.Errorf("round %d published watermark %d without indexing hq-new", sn.Round, sn.Watermark)
						return
					}
					last = sn.Watermark
					runtime.Gosched()
				}
			}()
			var lastSeq atomic.Int64
			post := func(path string, body any) int64 {
				code, ack := postAck(t, ts.URL+path, body)
				if code != http.StatusOK {
					t.Errorf("POST %s: %d", path, code)
				}
				for last := lastSeq.Load(); ack.Seq > last && !lastSeq.CompareAndSwap(last, ack.Seq); last = lastSeq.Load() {
				}
				return ack.Seq
			}
			for i := range 9 { // the ninth answer launches fit 2
				post("/answer", answer(i))
			}
			deadline := time.Now().Add(10 * time.Second)
			for calls.Load() < 2 {
				if time.Now().After(deadline) {
					t.Fatal("the count trigger never launched a fit")
				}
				time.Sleep(time.Millisecond)
			}

			var wg sync.WaitGroup
			wg.Add(3)
			go func() {
				defer wg.Done()
				objSeq.Store(post("/objects", c.growth[0]))
				post("/records", c.growth[1])
			}()
			for g := range 2 {
				go func() {
					defer wg.Done()
					for i := 9 + 3*g; i < 12+3*g; i++ {
						post("/answer", answer(i))
					}
				}()
			}
			wg.Wait()
			if sn := s.Snapshot(); sn.Round != 1 || sn.Idx.View("hq-new") != nil {
				t.Fatalf("round %d (hq-new indexed: %v) before the gated fit landed; want round 1 without it",
					sn.Round, sn.Idx.View("hq-new") != nil)
			}
			openGate()
			waitApplied(t, s, 15, 2)
			if !c.folds {
				// A refit-only engine holds the growth and the answers
				// until a fit indexes them.
				if _, err := s.Refresh(); err != nil {
					t.Fatal(err)
				}
			}
			sn := waitFor(t, s, "every item to be visible", func(sn *Snapshot) bool { return sn.Watermark == lastSeq.Load() })
			wantRound, wantFits := int64(2), int32(2)
			if !c.folds {
				wantRound, wantFits = 3, 3
			}
			if sn.Round != wantRound || calls.Load() != wantFits {
				t.Fatalf("round %d after %d fits; want round %d after %d: the fit in flight lands and no other runs in its place",
					sn.Round, calls.Load(), wantRound, wantFits)
			}
			if sn.Idx.View("hq-new") == nil || sn.Answers != 15 || sn.Mutations != 2 {
				t.Fatalf("hq-new indexed: %v, %d answers, %d mutations; want true, 15, 2",
					sn.Idx.View("hq-new") != nil, sn.Answers, sn.Mutations)
			}
			items := s.metrics.answersAccepted.Value() + s.metrics.objectsAdded.Value() + s.metrics.recordsAdded.Value()
			if got := s.metrics.visibility.Count(); got != uint64(items) {
				t.Fatalf("tdh_visibility_seconds_count = %d, want one per accepted item (%d)", got, items)
			}
			close(stop)
			<-watched
		})
	}
}
