package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
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

// gatedEngine holds every Fit after the boot fit until gate is closed.
type gatedEngine struct {
	engine.Engine
	gate  <-chan struct{}
	calls *atomic.Int32
}

func (e gatedEngine) Fit(idx *data.Index) engine.State {
	if e.calls.Add(1) > 1 {
		<-e.gate
	}
	return e.Engine.Fit(idx)
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

// fitRig drives a TDH server through its handler, without a listener. Every
// fit after the boot fit waits for gate to close (gatedEngine) or, ungated,
// sleeps in slowInferencer.
type fitRig struct {
	s     *Server
	calls *atomic.Int32
	gate  chan struct{}
	objs  []string
	next  int
}

func newFitRig(t *testing.T, pol RefitPolicy, gated bool) *fitRig {
	t.Helper()
	r := &fitRig{calls: &atomic.Int32{}}
	eng := engine.NewCategorical(slowInferencer{inner: infer.NewTDH(), delay: 100 * time.Millisecond, calls: r.calls})
	if gated {
		r.gate = make(chan struct{})
		eng = gatedEngine{Engine: engine.NewCategorical(infer.NewTDH()), gate: r.gate, calls: r.calls}
	}
	s, err := New(Config{
		Dataset: synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.06}),
		Engine:  eng, Assigner: assign.EAI{}, OpenAnswers: true, Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.s, r.objs = s, s.SortedObjects()
	return r
}

// post submits n answers, each from a fresh worker, and returns the last
// acknowledged seq.
func (r *fitRig) post(t *testing.T, n int) int64 {
	t.Helper()
	var ack lineageAck
	for range n {
		o := r.objs[r.next%len(r.objs)]
		a := data.Answer{Worker: fmt.Sprintf("w%d", r.next), Object: o, Value: r.s.Snapshot().Idx.View(o).CI.Values[0]}
		r.next++
		body, _ := json.Marshal(a)
		rec := httptest.NewRecorder()
		r.s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/answer", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("answer status %d", rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			t.Fatal(err)
		}
	}
	return ack.Seq
}

// waitFor polls until cond holds on the published snapshot and returns it.
func waitFor(t *testing.T, s *Server, what string, cond func(*Snapshot) bool) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if sn := s.Snapshot(); cond(sn) {
			return sn
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestFoldsPublishWhileFitting: a policy-triggered refit runs beside the
// coordinator. While the second fit is in flight, answers posted meanwhile
// fold and reach the watermark; the count trigger counts from the install
// and the staleness deadline runs from the oldest answer the installed fit
// has not seen; Refresh and Close issued mid-fit land it and return,
// leaving no goroutine behind.
func TestFoldsPublishWhileFitting(t *testing.T) {
	fits := func(r *fitRig, n int32) func(*Snapshot) bool {
		return func(*Snapshot) bool { return r.calls.Load() == n }
	}
	round := func(n int64) func(*Snapshot) bool {
		return func(sn *Snapshot) bool { return sn.Round == n }
	}

	t.Run("count from install", func(t *testing.T) {
		r := newFitRig(t, RefitPolicy{MaxAnswers: 4, MaxStaleness: -1}, true)
		defer r.s.Close()
		r.post(t, 4) // the cycle that drains the fourth answer launches fit 2
		waitFor(t, r.s, "fit 2 to start", fits(r, 2))
		seq := r.post(t, 3)
		sn := waitFor(t, r.s, "the mid-fit answers to be visible", func(sn *Snapshot) bool { return sn.Watermark >= seq })
		if sn.Round != 1 || sn.Answers != 7 {
			t.Fatalf("mid-fit snapshot: round %d, %d answers; want round 1 with all 7 folded", sn.Round, sn.Answers)
		}
		if n := r.s.metrics.visibility.Count(); n != 7 {
			t.Fatalf("%d visibility observations before the fit landed, want 7", n)
		}
		close(r.gate)
		sn = waitFor(t, r.s, "fit 2 to land", round(2))
		if got := len(sn.Idx.DS.Answers); got != 4 || sn.Answers != 7 || sn.Watermark != seq {
			t.Fatalf("install: fit cut at %d answers, %d folded, watermark %d; want 4, 7, %d", got, sn.Answers, sn.Watermark, seq)
		}
		// The count trigger in force after the install: the floor if fit 2
		// flipped a truth, twice the floor if it flipped none (backOff).
		th := int(r.s.metrics.refitThreshold.Value())
		if th != 4 && th != 8 {
			t.Fatalf("count threshold %d after fit 2 landed, want 4 or 8", th)
		}
		r.post(t, 3)
		waitFor(t, r.s, "the post-install answers", func(sn *Snapshot) bool { return sn.Answers == 10 })
		r.post(t, th-3)
		sn = waitFor(t, r.s, "fit 3 to land", round(3))
		if got := len(sn.Idx.DS.Answers); got != 7+th {
			t.Fatalf("fit 3 was cut at %d answers, want %d: %d since the install, not since the cut", got, 7+th, th)
		}
	})

	t.Run("staleness from the oldest unseen answer", func(t *testing.T) {
		r := newFitRig(t, RefitPolicy{MaxAnswers: -1, MaxStaleness: 20 * time.Millisecond}, true)
		defer r.s.Close()
		r.post(t, 1)
		waitFor(t, r.s, "the deadline to launch fit 2", fits(r, 2))
		seq := r.post(t, 1)
		waitFor(t, r.s, "the mid-fit answer to be visible", func(sn *Snapshot) bool { return sn.Watermark >= seq })
		close(r.gate)
		// Nothing more is posted: the answer drained during fit 2 is past its
		// deadline by the time the fit is installed.
		sn := waitFor(t, r.s, "fit 3 to land", round(3))
		if got := len(sn.Idx.DS.Answers); got != 2 {
			t.Fatalf("fit 3 was cut at %d answers, want 2", got)
		}
	})

	t.Run("refresh and close mid-fit", func(t *testing.T) {
		base := runtime.NumGoroutine()
		r := newFitRig(t, RefitPolicy{MaxAnswers: 4, MaxStaleness: -1}, false)
		r.post(t, 4)
		waitFor(t, r.s, "fit 2 to start", fits(r, 2))
		sn, err := r.s.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if sn.Round != 3 || sn.Answers != 4 || r.calls.Load() != 3 {
			t.Fatalf("refresh: round %d, %d answers after %d fits; want round 3 (the fit in flight landed, then the refresh's own), 4 answers, 3 fits",
				sn.Round, sn.Answers, r.calls.Load())
		}
		// The refresh's fit saw what fit 2 saw and flipped nothing, so the
		// count trigger doubled past whatever fit 2 left in force.
		th := int(r.s.metrics.refitThreshold.Value())
		if th != 8 && th != 16 {
			t.Fatalf("count threshold %d after the refresh, want 8 or 16", th)
		}
		r.post(t, th)
		waitFor(t, r.s, "fit 4 to start", fits(r, 4))
		if err := r.s.Close(); err != nil {
			t.Fatal(err)
		}
		if sn := r.s.Snapshot(); sn.Round != 4 || sn.Answers != 4+th {
			t.Fatalf("after Close: round %d, %d answers; want round 4 (the fit in flight landed), %d answers", sn.Round, sn.Answers, 4+th)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestInstallEqualsSynchronousRefit pins the install of a fit that ran
// beside the coordinator to its definition: the state it publishes equals,
// bit for bit, Engine.Fit over NewIndex of the cut's prefix followed by one
// epoch folding the answers drained since the cut. A refit-only engine
// (VOTE) cannot fold them: it publishes the prefix fit with the watermark
// at the cut's seq, and the items past the cut stay uncompleted.
func TestInstallEqualsSynchronousRefit(t *testing.T) {
	stock := synth.Stock(synth.StockConfig{Seed: 2, Symbols: 30})[1]
	crh, err := engine.New(engine.Numeric, "CRH", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	heritages := synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.06})
	categorical := func(o string, ov *data.ObjectView, i int) data.Answer {
		return data.Answer{Worker: fmt.Sprintf("w%d", i%5), Object: o, Value: ov.CI.Values[i%len(ov.CI.Values)]}
	}
	for _, c := range []struct {
		eng    engine.Engine
		ds     *data.Dataset
		answer func(o string, ov *data.ObjectView, i int) data.Answer
		folds  bool
	}{
		{engine.NewCategorical(infer.NewTDH()), heritages, categorical, true},
		{crh, &data.Dataset{Name: "stock", Records: stock.Records}, func(o string, _ *data.ObjectView, i int) data.Answer {
			v := stock.Gold[o] + float64(i%3)
			return data.Answer{Worker: fmt.Sprintf("w%d", i%5), Object: o, Num: &v}
		}, true},
		{engine.NewCategorical(infer.Vote{}), heritages, categorical, false},
	} {
		t.Run(c.eng.Name(), func(t *testing.T) {
			p, err := newPipeline(Config{
				Dataset: c.ds.Clone(), Engine: c.eng, Assigner: assign.ME{}, OpenAnswers: true,
				Policy: RefitPolicy{MaxAnswers: -1, MaxStaleness: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			s := p.s
			objs := s.SortedObjects()
			// cycle enqueues answers from..to-1 and runs one coordinator cycle.
			cycle := func(from, to int) []data.Answer {
				var out []data.Answer
				for i := from; i < to; i++ {
					o := objs[i%len(objs)]
					a := c.answer(o, p.idx.View(o), i)
					s.enqueue(ingestItem{answer: a, at: time.Now()})
					out = append(out, a)
				}
				answers, muts, taken := p.drain(0)
				p.apply(answers, muts)
				p.releaseDepth(taken)
				return out
			}
			cycle(0, 12)
			prefix, cut := p.work.Clone(), p.drainedSeq
			p.launchFit()
			suffix := cycle(12, 20)
			p.land(<-p.fit.done)
			got := s.Snapshot()

			wantIdx := data.NewIndex(prefix)
			want := c.eng.Fit(wantIdx)
			wantWM, wantSeen := p.drainedSeq, uint64(20)
			if c.folds {
				ep, ok := c.eng.NewEpoch(want, wantIdx)
				if !ok {
					t.Fatal("no epoch over the prefix fit")
				}
				ep.Fold(suffix)
				want = ep.Seal()
			} else {
				wantWM, wantSeen = cut, 12
			}
			if got.Round != 2 || got.Watermark != wantWM {
				t.Fatalf("install: round %d, watermark %d; want round 2, watermark %d", got.Round, got.Watermark, wantWM)
			}
			if n := s.metrics.visibility.Count(); n != wantSeen {
				t.Fatalf("%d items completed at the install, want %d", n, wantSeen)
			}
			if !reflect.DeepEqual(got.Idx.Objects, wantIdx.Objects) || got.Res.Rows.Index() != got.Idx {
				t.Fatal("install published another object set, or rows shaped by another index")
			}
			if g, w := stateDump(got.St, got.Idx.NumObjects()), stateDump(want, wantIdx.NumObjects()); g != w {
				t.Fatalf("install differs from fit(prefix) + fold(suffix):\ngot  %.300s\nwant %.300s", g, w)
			}
		})
	}
}

// flipEngine makes a land flip a truth or not on demand: every state it
// returns reads object 0's truth as the generation its fit was made in and
// every other object's as "", so a land flips exactly one truth when gen
// moved since the outgoing state's fit and none otherwise. Confidences,
// trust and folds are the wrapped engine's own; it takes no growth.
type flipEngine struct {
	engine.Engine
	gen *atomic.Int32
}

func (e flipEngine) Fit(idx *data.Index) engine.State {
	return newFlipState(e.Engine.Fit(idx), e.gen.Load())
}

func (e flipEngine) NewEpoch(st engine.State, idx *data.Index) (engine.Epoch, bool) {
	fs := st.(*flipState)
	ep, ok := e.Engine.NewEpoch(fs.State, idx)
	if !ok {
		return nil, false
	}
	return flipEpoch{Epoch: ep, gen: fs.gen}, true
}

// flipEpoch seals into a state of the generation it was opened over.
type flipEpoch struct {
	engine.Epoch
	gen int32
}

func (ep flipEpoch) Seal() engine.State { return newFlipState(ep.Epoch.Seal(), ep.gen) }

type flipState struct {
	engine.State
	gen int32
	res *infer.Result
}

func newFlipState(st engine.State, gen int32) *flipState {
	res := *st.Res()
	res.Rows = flipRows{Dense: res.Rows, gen: gen}
	return &flipState{State: st, gen: gen, res: &res}
}

func (st *flipState) Res() *infer.Result { return st.res }

type flipRows struct {
	infer.Dense
	gen int32
}

func (r flipRows) TruthAt(oid int) string {
	if oid == 0 {
		return strconv.Itoa(int(r.gen))
	}
	return ""
}

// TestRefitBackoff pins the count trigger's back-off: the threshold starts
// at MaxAnswers, doubles after a land that flipped no truth over an
// outgoing state that was not held, and resets to MaxAnswers on a flip or a
// held state; MaxStaleness still launches a fit while the doubled count is
// unmet. The pipeline is driven by hand, one answer per cycle, and each fit
// a trigger asks for is launched and landed at once, so where every fit is
// cut is exact. A refit-only engine (VOTE) is held at every land and never
// backs off; a numeric one (CRH) moves estimates at every land and keeps
// the floor. Every land after the boot fit observes each step-1 histogram
// once.
func TestRefitBackoff(t *testing.T) {
	stock := synth.Stock(synth.StockConfig{Seed: 2, Symbols: 30})[1]
	crh, err := engine.New(engine.Numeric, "CRH", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	heritages := synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.06})
	categorical := func(o string, ov *data.ObjectView, i int) data.Answer {
		return data.Answer{Worker: fmt.Sprintf("w%d", i%5), Object: o, Value: ov.CI.Values[i%len(ov.CI.Values)]}
	}
	const floor = 4
	for _, c := range []struct {
		name   string
		eng    func(gen *atomic.Int32) engine.Engine
		ds     *data.Dataset
		answer func(o string, ov *data.ObjectView, i int) data.Answer
		// flipAt: the gen bump before the fit cut at this many answers
		// (0: never); cuts and thresholds: where each fit is cut and the
		// count trigger its land leaves in force.
		flipAt     int
		cuts       []int
		thresholds []int
	}{
		{
			name: "TDH",
			eng:  func(gen *atomic.Int32) engine.Engine { return flipEngine{engine.NewCategorical(infer.NewTDH()), gen} },
			ds:   heritages, answer: categorical, flipAt: 28,
			// 0-flip lands double 4 → 8 → 16, the flip at 28 resets to 4, a
			// 0-flip land doubles again; the last fit is the staleness one,
			// cut one answer after 32 with 8 in force.
			cuts:       []int{4, 12, 28, 32, 33},
			thresholds: []int{8, 16, 4, 8, 16},
		},
		{
			name: "VOTE",
			eng:  func(gen *atomic.Int32) engine.Engine { return flipEngine{engine.NewCategorical(infer.Vote{}), gen} },
			ds:   heritages, answer: categorical,
			// No truth ever flips, but every outgoing state is held.
			cuts:       []int{4, 8, 12, 16, 17},
			thresholds: []int{4, 4, 4, 4, 4},
		},
		{
			name: "CRH",
			eng:  func(*atomic.Int32) engine.Engine { return crh },
			ds:   &data.Dataset{Name: "stock", Records: stock.Records},
			answer: func(o string, _ *data.ObjectView, i int) data.Answer {
				v := stock.Gold[o] + float64(i%3)
				return data.Answer{Worker: fmt.Sprintf("w%d", i%5), Object: o, Num: &v}
			},
			cuts:       []int{4, 8, 12, 16, 17},
			thresholds: []int{4, 4, 4, 4, 4},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			gen := &atomic.Int32{}
			p, err := newPipeline(Config{
				Dataset: c.ds.Clone(), Engine: c.eng(gen), Assigner: assign.ME{}, OpenAnswers: true,
				Policy: RefitPolicy{MaxAnswers: floor, MaxStaleness: time.Hour},
			})
			if err != nil {
				t.Fatal(err)
			}
			m := p.metrics()
			if th := m.refitThreshold.Value(); th != floor {
				t.Fatalf("count threshold %v at boot, want the floor %d", th, floor)
			}
			objs := p.s.SortedObjects()
			var cuts, thresholds []int
			// step runs one cycle over one answer and launches and lands the
			// fit the trigger asks for at now.
			step := func(i int, now time.Time) {
				o := objs[i%len(objs)]
				p.s.enqueue(ingestItem{answer: c.answer(o, p.idx.View(o), i), at: time.Now()})
				p.runCycle(0)
				if !p.shouldRefit(now) {
					return
				}
				if len(p.work.Answers) == c.flipAt {
					gen.Add(1)
				}
				cuts = append(cuts, len(p.work.Answers))
				p.launchFit()
				p.landFit()
				thresholds = append(thresholds, int(m.refitThreshold.Value()))
			}
			last := c.cuts[len(c.cuts)-2]
			for i := range last {
				step(i, time.Now())
			}
			// One more answer leaves the count in force unmet; past the
			// hour's staleness deadline, the fit launches anyway.
			step(last, time.Now().Add(2*time.Hour))
			if !slices.Equal(cuts, c.cuts) || !slices.Equal(thresholds, c.thresholds) {
				t.Fatalf("fits cut at %v leaving count thresholds %v; want %v and %v", cuts, thresholds, c.cuts, c.thresholds)
			}
			lands := uint64(len(cuts))
			if n := m.refitFlips.Count(); n != lands {
				t.Errorf("tdh_refit_truth_flips has %d observations after %d lands past the boot fit", n, lands)
			}
			for param, h := range m.refitDrift {
				if n := h.Count(); n != lands {
					t.Errorf("tdh_refit_drift{param=%q} has %d observations after %d lands past the boot fit", param, n, lands)
				}
			}
		})
	}
}

// stateDump prints everything a state publishes — truths, trust, every
// confidence row and, for TDH, φ/ψ — in a form that differs whenever one
// float differs in its bits (%v prints the shortest round-trip form).
func stateDump(st engine.State, n int) string {
	res := st.Res()
	var b strings.Builder
	fmt.Fprint(&b, st.Truths(), res.SourceTrust, res.WorkerTrust)
	for oid := range n {
		fmt.Fprint(&b, res.ConfidenceAt(oid), st.Confidence(oid))
	}
	if m, ok := res.Model.(*core.Model); ok {
		fmt.Fprint(&b, m.Phi, m.Psi)
	}
	return b.String()
}

// BenchmarkOneAnswerCycle times one coordinator cycle between refits as the
// pipeline runs it — apply (ingest, open an epoch, fold, seal) and publish
// (plan advance, snapshot store) — on Heritages ×1 at one and
// at sixteen answers per cycle. With refits off the coordinator, cycles
// this small are most of what it does; their ns/op and B/op are what a
// page- or chunk-size change (internal/cow) would move.
//
//	go test -run '^$' -bench BenchmarkOneAnswerCycle -benchmem ./internal/server
func BenchmarkOneAnswerCycle(b *testing.B) {
	p, err := newPipeline(Config{
		Dataset:  synth.Heritages(synth.HeritagesConfig{Seed: 1, Scale: 1}),
		Engine:   engine.NewCategorical(infer.NewTDH()),
		Assigner: assign.EAI{},
		Policy:   RefitPolicy{MaxAnswers: -1, MaxStaleness: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	n := p.idx.NumObjects()
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			cycles := make([][]data.Answer, 256)
			for i := range cycles {
				for j := range batch {
					ov := p.idx.ViewAt((i*batch + j) * 131 % n)
					cycles[i] = append(cycles[i], data.Answer{Object: ov.Object, Worker: fmt.Sprintf("bw-%d", i%8), Value: ov.CI.Values[0]})
				}
			}
			b.ReportAllocs()
			// apply keeps every cycle's answers in the working dataset for
			// the next refit's NewIndex. With refits off nothing reads them,
			// so they are dropped after each cycle: kept, they would grow
			// the live heap, and the GC's share of the time, with b.N.
			seed := len(p.work.Answers)
			cycle := func(i int) {
				p.apply(cycles[i%len(cycles)], nil)
				p.work.Answers = p.work.Answers[:seed]
			}
			// Re-answered objects settle and their ranking chunks split, so
			// the first cycles cost more than later ones; eight passes
			// before the timer keep B/op within 2% from 2,000 to 20,000
			// cycles.
			for i := range 8 * len(cycles) {
				cycle(i)
			}
			i := 0
			for b.Loop() {
				cycle(i)
				i++
			}
		})
	}
}
