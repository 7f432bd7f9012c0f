package server

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/synth"
)

// slowInferencer wraps an Inferencer and sleeps on every call after the
// first, simulating an expensive full refit so tests can observe reads
// happening while one is in flight.
type slowInferencer struct {
	inner infer.Inferencer
	delay time.Duration
	calls *atomic.Int32
}

func (si slowInferencer) Name() string { return si.inner.Name() }

func (si slowInferencer) Infer(idx *data.Index) *infer.Result {
	if si.calls.Add(1) > 1 {
		time.Sleep(si.delay)
	}
	return si.inner.Infer(idx)
}

// TestSnapshotConsistencyDuringRefit: while a slow full refit is in flight,
// read endpoints keep answering from the previous snapshot, and every
// response carries a mutually consistent (round, applied-answers) pair —
// both monotonically non-decreasing across reads.
func TestSnapshotConsistencyDuringRefit(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.06})
	calls := &atomic.Int32{}
	s, err := New(Config{
		Dataset:     ds,
		Engine:      engine.NewCategorical(slowInferencer{inner: infer.NewTDH(), delay: 300 * time.Millisecond, calls: calls}),
		Assigner:    assign.EAI{},
		K:           2,
		OpenAnswers: true,
		// Disable automatic refits so the only slow refit is the explicit one.
		Policy: RefitPolicy{MaxAnswers: -1, MaxStaleness: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Submit one answer so the refit has something new to fold in.
	obj := s.SortedObjects()[0]
	val := s.Snapshot().Idx.View(obj).CI.Values[0]
	if resp := postJSON(t, ts.URL+"/answer", data.Answer{Worker: "w0", Object: obj, Value: val}); resp.StatusCode != 200 {
		t.Fatalf("answer status %d", resp.StatusCode)
	}

	refitDone := make(chan struct{})
	go func() {
		defer close(refitDone)
		postJSON(t, ts.URL+"/refresh", nil)
	}()

	// Hammer /stats while the refit sleeps: reads must not block behind it,
	// and (round, applied) must never go backwards.
	var lastRound int64
	var lastApplied, during int
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		start := time.Now()
		var st Stats
		getJSON(t, ts.URL+"/stats", &st)
		if d := time.Since(start); d > 150*time.Millisecond {
			t.Fatalf("read blocked %v behind the refit", d)
		}
		if st.Rounds < lastRound || st.Applied < lastApplied {
			t.Fatalf("snapshot went backwards: (%d,%d) after (%d,%d)",
				st.Rounds, st.Applied, lastRound, lastApplied)
		}
		if st.Applied > st.Answers {
			t.Fatalf("applied %d > accepted %d", st.Applied, st.Answers)
		}
		lastRound, lastApplied = st.Rounds, st.Applied
		select {
		case <-refitDone:
			getJSON(t, ts.URL+"/stats", &st)
			if st.Rounds < 2 {
				t.Fatalf("refresh did not publish a new round: %d", st.Rounds)
			}
			if during == 0 {
				t.Fatal("no reads completed while the refit was in flight")
			}
			return
		default:
			during++
		}
	}
	t.Fatal("refresh did not complete in time")
}

// TestIncrementalUpdatesBetweenRefits: with automatic refits disabled, an
// accepted answer still reaches the published snapshot through the
// incremental EM path (applied count grows, round does not).
func TestIncrementalUpdatesBetweenRefits(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: 0.06})
	s, err := New(Config{
		Dataset:     ds,
		Engine:      engine.NewCategorical(infer.NewTDH()),
		Assigner:    assign.EAI{},
		OpenAnswers: true,
		Policy:      RefitPolicy{MaxAnswers: -1, MaxStaleness: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	round0 := s.Snapshot().Round
	obj := s.SortedObjects()[0]
	val := s.Snapshot().Idx.View(obj).CI.Values[0]
	if resp := postJSON(t, ts.URL+"/answer", data.Answer{Worker: "inc-w", Object: obj, Value: val}); resp.StatusCode != 200 {
		t.Fatalf("answer status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := s.Snapshot()
		if snap.Answers == 1 {
			if snap.Round != round0 {
				t.Fatalf("incremental apply must not count as a refit: round %d -> %d", round0, snap.Round)
			}
			// The updated confidences are visible to readers.
			var conf map[string]float64
			getJSON(t, ts.URL+"/confidence?object="+obj, &conf)
			if len(conf) == 0 {
				t.Fatal("no confidence after incremental update")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("answer never folded in: snapshot answers = %d", snap.Answers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseFlushesQueue: Server.Close drains every accepted answer into a
// final snapshot before stopping the pipeline.
func TestCloseFlushesQueue(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 11, Scale: 0.06})
	s, err := New(Config{
		Dataset:     ds,
		Engine:      engine.NewCategorical(infer.NewTDH()),
		Assigner:    assign.EAI{},
		OpenAnswers: true,
		Policy:      RefitPolicy{MaxAnswers: -1, MaxStaleness: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	snap := s.Snapshot()
	objs := s.SortedObjects()
	n := 8
	if len(objs) < n {
		n = len(objs)
	}
	for i := 0; i < n; i++ {
		val := snap.Idx.View(objs[i]).CI.Values[0]
		if resp := postJSON(t, ts.URL+"/answer", data.Answer{Worker: "flush-w", Object: objs[i], Value: val}); resp.StatusCode != 200 {
			t.Fatalf("answer %d status %d", i, resp.StatusCode)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Answers; got != n {
		t.Fatalf("final snapshot folded %d answers, want %d", got, n)
	}
	// Closed server still serves reads but rejects new answers.
	var truths map[string]string
	getJSON(t, ts.URL+"/truths", &truths)
	if len(truths) == 0 {
		t.Fatal("no truths after close")
	}
	val := snap.Idx.View(objs[0]).CI.Values[0]
	if resp := postJSON(t, ts.URL+"/answer", data.Answer{Worker: "late-w", Object: objs[0], Value: val}); resp.StatusCode != 503 {
		t.Fatalf("post-close answer status %d, want 503", resp.StatusCode)
	}
}

// TestSameWorkerTaskAnswerRace: one worker polling /task while answering
// concurrently — regression test for the pending-slice aliasing race (the
// served task list must not share a backing array with the pending list
// that markAnswered mutates in place).
func TestSameWorkerTaskAnswerRace(t *testing.T) {
	_, ts, _ := newTestServer(t)
	const worker = "racer"
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			fetchTasks(t, ts.URL, worker)
		}
	}()
	for i := 0; i < 30; i++ {
		for _, task := range fetchTasks(t, ts.URL, worker) {
			postJSON(t, ts.URL+"/answer", data.Answer{
				Worker: worker, Object: task.Object, Value: task.Candidates[0],
			})
			break
		}
	}
	<-done
}

// TestConcurrentClients interleaves /task, /answer and read endpoints from
// many goroutines — the race-detector test required by the snapshot
// architecture (run with -race).
func TestConcurrentClients(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 13, Scale: 0.08})
	s, err := New(Config{
		Dataset:  ds,
		Engine:   engine.NewCategorical(infer.NewTDH()),
		Assigner: assign.EAI{},
		K:        2,
		Seed:     13,
		Policy:   RefitPolicy{MaxAnswers: 4, MaxStaleness: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	var wg sync.WaitGroup
	var acceptedTotal atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			worker := fmt.Sprintf("cc-%d", c)
			for iter := 0; iter < 5; iter++ {
				tasks := fetchTasks(t, ts.URL, worker)
				for _, task := range tasks {
					resp := postJSON(t, ts.URL+"/answer", data.Answer{
						Worker: worker, Object: task.Object, Value: task.Candidates[0],
					})
					if resp.StatusCode == 200 {
						acceptedTotal.Add(1)
					}
				}
				var truths map[string]string
				getJSON(t, ts.URL+"/truths", &truths)
				var st Stats
				getJSON(t, ts.URL+"/stats", &st)
				if st.Applied > st.Answers {
					t.Errorf("applied %d > accepted %d", st.Applied, st.Answers)
				}
			}
		}(c)
	}
	wg.Wait()
	if acceptedTotal.Load() == 0 {
		t.Fatal("no answers accepted")
	}
	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if int64(snap.Answers) != acceptedTotal.Load() {
		t.Fatalf("snapshot folded %d answers, accepted %d", snap.Answers, acceptedTotal.Load())
	}
}

// recordingEngine is a slowEngine (every cycle's epoch takes at least delay
// to open) that records the order of the coordinator's full refits and
// folds.
type recordingEngine struct {
	slowEngine
	visible func() uint64 // visibility observations so far, read at each refit

	mu     sync.Mutex
	events []string
}

func (e *recordingEngine) record(ev string) {
	e.mu.Lock()
	e.events = append(e.events, ev)
	e.mu.Unlock()
}

func (e *recordingEngine) Fit(idx *data.Index) engine.State {
	ev := "fit"
	if e.visible != nil {
		ev = fmt.Sprintf("fit@%d", e.visible())
	}
	e.record(ev)
	return e.Engine.Fit(idx)
}

func (e *recordingEngine) NewEpoch(st engine.State, idx *data.Index) (engine.Epoch, bool) {
	e.record("fold")
	return e.slowEngine.NewEpoch(st, idx)
}

// TestCountRefitWaitsForBacklog pins the refit predicate on a backlog of
// five batches queued before the coordinator starts, with the count trigger
// at one batch: the count trigger is deferred behind the backlog — every
// queued answer is folded and visible before the one refit that follows —
// for at most MaxStaleness, and not at all when no staleness bound exists.
func TestCountRefitWaitsForBacklog(t *testing.T) {
	const batch, batches = 4, 5
	for _, c := range []struct {
		name      string
		staleness time.Duration
		foldDelay time.Duration
		want      string // events after the boot fit; "" = checked below
	}{
		{name: "deferred behind the backlog", staleness: time.Minute,
			want: "[fold fold fold fold fold fit@20]"},
		// Each fold outlasts the staleness bound, so the deadline has passed
		// by the end of the first cycle.
		{name: "staleness bounds the deferral", staleness: time.Millisecond, foldDelay: 5 * time.Millisecond},
		{name: "no staleness bound, no deferral", staleness: -1,
			want: "[fold fit@4 fold fit@8 fold fit@12 fold fit@16 fold fit@20]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ds := synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.06})
			rec := &recordingEngine{slowEngine: slowEngine{
				Engine: engine.NewCategorical(infer.NewTDH()), delay: c.foldDelay}}
			p, err := newPipeline(Config{
				Dataset: ds, Engine: rec, Assigner: assign.EAI{}, OpenAnswers: true,
				Policy: RefitPolicy{MaxAnswers: batch, BatchSize: batch, MaxStaleness: c.staleness},
			})
			if err != nil {
				t.Fatal(err)
			}
			s := p.s
			rec.visible = s.metrics.visibility.Count
			snap := s.Snapshot()
			for i, o := range s.SortedObjects()[:batch*batches] {
				a := data.Answer{Worker: fmt.Sprintf("w%d", i), Object: o, Value: snap.Idx.View(o).CI.Values[0]}
				s.enqueue(ingestItem{answer: a, at: time.Now()})
			}
			go p.loop()
			// Depth is released at the end of a cycle, after its refit.
			deadline := time.Now().Add(10 * time.Second)
			for s.queueDepth.Load() > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("backlog never drained: depth %d", s.queueDepth.Load())
				}
				time.Sleep(time.Millisecond)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			events := rec.events[1:] // [0] is the boot fit
			if c.want != "" {
				if got := fmt.Sprint(events); got != c.want {
					t.Fatalf("coordinator ran %s, want %s", got, c.want)
				}
				return
			}
			if fmt.Sprint(events[:2]) != "[fold fit@4]" || events[len(events)-1] == "fold" {
				t.Fatalf("coordinator ran %v, want a refit after the first fold and after the last", events)
			}
		})
	}
}
