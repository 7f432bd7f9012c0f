package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
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

// newFoldServer builds a TDH server over ds with refits disabled, so every
// publish exercises the incremental (epoch-fold + plan-advance) path.
func newFoldServer(t *testing.T, ds *data.Dataset) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Dataset:     ds.Clone(),
		Engine:      engine.NewCategorical(infer.NewTDH()),
		Assigner:    assign.EAI{},
		K:           3,
		Seed:        42,
		OpenAnswers: true,
		Policy:      RefitPolicy{MaxAnswers: -1, MaxStaleness: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// driveCampaign submits a deterministic campaign to a server: a first wave
// of answers, an open-world growth phase (one new object, one new record),
// and a second wave that includes the grown object.
func driveCampaign(t *testing.T, s *Server, url string) (answers, mutations int) {
	t.Helper()
	snap := s.Snapshot()
	objs := s.SortedObjects()
	rng := rand.New(rand.NewSource(7))
	post := func(w, o string) {
		vals := snap.Idx.View(o).CI.Values
		a := data.Answer{Worker: w, Object: o, Value: vals[rng.Intn(len(vals))]}
		if resp := postJSON(t, url+"/answer", a); resp.StatusCode != 200 {
			t.Fatalf("answer %s/%s status %d", w, o, resp.StatusCode)
		}
		answers++
	}
	for i := 0; i < 24 && i < len(objs); i++ {
		post(fmt.Sprintf("w%02d", i%6), objs[i])
	}

	// Growth: a fresh object seeded with an existing object's candidates
	// (hierarchy-scoped), plus a new source record for a known object.
	donor := snap.Idx.View(objs[0]).CI.Values
	if resp := postJSON(t, url+"/objects", AddObjectRequest{Object: "zz-grown", Candidates: donor}); resp.StatusCode != 200 {
		t.Fatalf("add object status %d", resp.StatusCode)
	}
	if resp := postJSON(t, url+"/records", data.Record{Object: objs[1], Source: "zz-src", Value: donor[0]}); resp.StatusCode != 200 {
		t.Fatalf("add record status %d", resp.StatusCode)
	}
	mutations = 2

	// Wait for the growth to reach a snapshot, then answer the grown object.
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Idx.View("zz-grown") == nil {
		if time.Now().After(deadline) {
			t.Fatal("grown object never reached a snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		w := fmt.Sprintf("gw%d", i)
		a := data.Answer{Worker: w, Object: "zz-grown", Value: donor[i%len(donor)]}
		if resp := postJSON(t, url+"/answer", a); resp.StatusCode != 200 {
			t.Fatalf("grown answer status %d", resp.StatusCode)
		}
		answers++
	}
	return answers, mutations
}

// lineageAck is the (shard, seq) coordinate an accepted ingest echoes.
type lineageAck struct {
	Shard *int  `json:"shard"`
	Seq   int64 `json:"seq"`
}

// postAck POSTs payload as JSON and decodes the ack of a 200 reply. It
// reports failures with t.Error, so storm goroutines may call it; a failed
// request returns status 0.
func postAck(t *testing.T, url string, payload any) (int, lineageAck) {
	t.Helper()
	var ack lineageAck
	buf, _ := json.Marshal(payload)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Error(err)
		return 0, ack
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Error(err)
			return 0, ack
		}
	}
	return resp.StatusCode, ack
}

// TestIngestStorm hammers the ingest queue from concurrent workers —
// /task + /answer + open-world growth + reads — then closes the server and
// checks that no acknowledged answer was lost, that every ack names the one
// queue (shard 0) and that the final watermark is the last acknowledged
// seq. Run with -race: it is the concurrency pin for enqueue, the
// coordinator's fold and the publish/advance path.
func TestIngestStorm(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 9, Scale: 0.1})
	s, err := New(Config{
		Dataset:     ds.Clone(),
		Engine:      engine.NewCategorical(infer.NewTDH()),
		Assigner:    assign.EAI{},
		K:           2,
		Seed:        1,
		OpenAnswers: true,
		// Frequent refits keep every pipeline path hot.
		Policy: RefitPolicy{MaxAnswers: 40, MaxStaleness: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	objs := s.SortedObjects()
	snap := s.Snapshot()
	var wg sync.WaitGroup
	var accepted, lastSeq atomic.Int64
	record := func(a lineageAck) {
		if a.Shard == nil || *a.Shard != 0 || a.Seq < 1 {
			t.Errorf("ack names shard %v seq %d, want shard 0 and a positive seq", a.Shard, a.Seq)
		}
		for {
			last := lastSeq.Load()
			if a.Seq <= last || lastSeq.CompareAndSwap(last, a.Seq) {
				return
			}
		}
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 25; i++ {
				o := objs[rng.Intn(len(objs))]
				vals := snap.Idx.View(o).CI.Values
				code, a := postAck(t, ts.URL+"/answer", data.Answer{
					Worker: fmt.Sprintf("storm%d", w), Object: o, Value: vals[rng.Intn(len(vals))],
				})
				if code == http.StatusOK {
					accepted.Add(1)
					record(a)
				}
				fetchTasks(t, ts.URL, fmt.Sprintf("storm%d", w))
			}
		}(w)
	}
	// Concurrent growth and reads against the same pipeline.
	wg.Add(1)
	go func() {
		defer wg.Done()
		donor := snap.Idx.View(objs[0]).CI.Values
		for i := 0; i < 10; i++ {
			code, a := postAck(t, ts.URL+"/objects", AddObjectRequest{
				Object: fmt.Sprintf("storm-obj-%d", i), Candidates: donor,
			})
			if code == http.StatusOK {
				record(a)
			}
			var st Stats
			getJSON(t, ts.URL+"/stats", &st)
			if st.Shards != 1 || len(st.ShardQueueDepth) != 1 || len(st.Watermarks) != 1 {
				t.Errorf("stats = %d shards, %d queue depths, %d watermarks; want 1 of each",
					st.Shards, len(st.ShardQueueDepth), len(st.Watermarks))
			}
		}
	}()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	final := s.Snapshot()
	if got := int64(final.Answers); got != accepted.Load() {
		t.Fatalf("final snapshot folded %d answers, %d were acknowledged", got, accepted.Load())
	}
	st := s.Stats()
	if st.PlanFallbacks != 0 {
		t.Fatalf("plan fallbacks under storm: %d", st.PlanFallbacks)
	}
	if st.Watermarks[0] != lastSeq.Load() || st.ShardQueueDepth[0] != 0 {
		t.Fatalf("final watermark %d with queue depth %d, want the last acked seq %d and 0",
			st.Watermarks[0], st.ShardQueueDepth[0], lastSeq.Load())
	}
}

// TestRefitOnlyWatermark: an engine with no incremental path (VOTE) opens
// no epoch, so a cycle that drains an answer publishes a state that does
// not reflect it. The watermark must not cover that answer, nor may its
// visibility be observed, until the refit that absorbs it — and then
// exactly once.
func TestRefitOnlyWatermark(t *testing.T) {
	ds := &data.Dataset{Name: "vote", Records: []data.Record{
		{Object: "o1", Source: "s1", Value: "a"},
		{Object: "o1", Source: "s2", Value: "b"},
		{Object: "o2", Source: "s1", Value: "c"},
	}}
	s, err := New(Config{
		Dataset: ds, Engine: engine.NewCategorical(infer.Vote{}), Assigner: assign.ME{},
		OpenAnswers: true, Policy: RefitPolicy{MaxAnswers: -1, MaxStaleness: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if got := s.Truths()["o1"]; got != "a" {
		t.Fatalf("boot truth of o1 = %q, want the tie broken toward a", got)
	}

	code, ack := postAck(t, ts.URL+"/answer", data.Answer{Worker: "w1", Object: "o1", Value: "b"})
	if code != http.StatusOK {
		t.Fatalf("answer status %d", code)
	}
	waitApplied(t, s, 1, 0) // the cycle that drained the answer has published
	if wm := s.Stats().Watermarks[0]; wm >= ack.Seq {
		t.Fatalf("watermark %d covers seq %d, but /truths still serves o1 = %q", wm, ack.Seq, s.Truths()["o1"])
	}
	if n := s.metrics.visibility.Count(); n != 0 {
		t.Fatalf("%d visibility observations before the refit, want 0", n)
	}

	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if wm := s.Stats().Watermarks[0]; wm != ack.Seq {
		t.Fatalf("watermark after the refit = %d, want %d", wm, ack.Seq)
	}
	if got := s.Truths()["o1"]; got != "b" {
		t.Fatalf("o1 = %q after the refit, want b (two votes to one)", got)
	}
	if n := s.metrics.visibility.Count(); n != 1 {
		t.Fatalf("%d visibility observations after the refit, want exactly 1", n)
	}
}
