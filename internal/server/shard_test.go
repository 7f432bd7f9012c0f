package server

import (
	"fmt"
	"math"
	"math/rand"
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

// The shard equivalence suite: a pipeline with N ingest shards must publish
// exactly the state a single-shard (i.e. the old single-goroutine) pipeline
// publishes for the same submissions. Sharding only changes WHERE answers
// queue and HOW concurrently they fold — the epoch fold is object-local, so
// the stitched snapshot, its plan, and the /task assignments served from it
// are pinned identical (confidences within 1e-9, assignments byte-equal).

// newShardServer builds a server over ds with the given shard count and
// refits disabled, so every publish exercises the incremental (epoch-fold +
// plan-advance) path under test.
func newShardServer(t *testing.T, ds *data.Dataset, shards int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Dataset:     ds.Clone(),
		Engine:      engine.NewCategorical(infer.NewTDH(), engine.Config{}),
		Assigner:    assign.EAI{},
		K:           3,
		Seed:        42,
		OpenAnswers: true,
		Policy:      RefitPolicy{MaxAnswers: -1, MaxStaleness: -1, Shards: shards},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// driveCampaign submits the same deterministic campaign to a server: a
// first wave of answers, an open-world growth phase (one new object, one
// new record), and a second wave that includes the grown object.
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
	if resp := postJSON(t, url+"/objects", AddObjectRequest{Object: "zz-shard-grown", Candidates: donor}); resp.StatusCode != 200 {
		t.Fatalf("add object status %d", resp.StatusCode)
	}
	if resp := postJSON(t, url+"/records", data.Record{Object: objs[1], Source: "shard-src", Value: donor[0]}); resp.StatusCode != 200 {
		t.Fatalf("add record status %d", resp.StatusCode)
	}
	mutations = 2

	// Wait for the growth to reach a snapshot, then answer the grown object.
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Idx.View("zz-shard-grown") == nil {
		if time.Now().After(deadline) {
			t.Fatal("grown object never reached a snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		w := fmt.Sprintf("gw%d", i)
		a := data.Answer{Worker: w, Object: "zz-shard-grown", Value: donor[i%len(donor)]}
		if resp := postJSON(t, url+"/answer", a); resp.StatusCode != 200 {
			t.Fatalf("grown answer status %d", resp.StatusCode)
		}
		answers++
	}
	return answers, mutations
}

func TestShardEquivalence(t *testing.T) {
	datasets := map[string]*data.Dataset{
		"heritages":   synth.Heritages(synth.HeritagesConfig{Seed: 3, Scale: 0.08}),
		"birthplaces": synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 3, Scale: 0.04}),
	}
	for name, ds := range datasets {
		t.Run(name, func(t *testing.T) {
			s1, ts1 := newShardServer(t, ds, 1)
			sN, tsN := newShardServer(t, ds, 4)

			wantA, wantM := driveCampaign(t, s1, ts1.URL)
			gotA, gotM := driveCampaign(t, sN, tsN.URL)
			if wantA != gotA || wantM != gotM {
				t.Fatalf("submission mismatch: %d/%d vs %d/%d", gotA, gotM, wantA, wantM)
			}
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			if err := sN.Close(); err != nil {
				t.Fatal(err)
			}

			a, b := s1.Snapshot(), sN.Snapshot()
			if a.Answers != wantA || b.Answers != wantA {
				t.Fatalf("folded answers %d/%d, want %d", a.Answers, b.Answers, wantA)
			}
			if a.Mutations != wantM || b.Mutations != wantM {
				t.Fatalf("folded mutations %d/%d, want %d", a.Mutations, b.Mutations, wantM)
			}
			if len(a.Idx.Objects) != len(b.Idx.Objects) {
				t.Fatalf("object counts differ: %d vs %d", len(a.Idx.Objects), len(b.Idx.Objects))
			}
			for oid, o := range a.Idx.Objects {
				if b.Idx.Objects[oid] != o {
					t.Fatalf("object %d named %q vs %q", oid, o, b.Idx.Objects[oid])
				}
				mu1, muN := a.Res.ConfidenceAt(a.Idx, oid), b.Res.ConfidenceAt(b.Idx, oid)
				if len(mu1) == 0 {
					t.Fatalf("%s: no confidence row", o)
				}
				if len(mu1) != len(muN) {
					t.Fatalf("%s: confidence row lengths %d vs %d", o, len(mu1), len(muN))
				}
				for i := range mu1 {
					if math.Abs(mu1[i]-muN[i]) > 1e-9 {
						t.Fatalf("%s: confidence[%d] %g vs %g", o, i, mu1[i], muN[i])
					}
				}
			}

			// The behavioral half: identical EAI assignments (same plan scan
			// order, same cold-worker scores) for a fresh worker pool.
			for i := 0; i < 6; i++ {
				w := fmt.Sprintf("probe%d", i)
				t1, tN := fetchTasks(t, ts1.URL, w), fetchTasks(t, tsN.URL, w)
				if len(t1) != len(tN) {
					t.Fatalf("probe %s: %d vs %d tasks", w, len(t1), len(tN))
				}
				for j := range t1 {
					if t1[j].Object != tN[j].Object {
						t.Fatalf("probe %s task %d: %q vs %q", w, j, t1[j].Object, tN[j].Object)
					}
				}
			}

			// Plan maintenance took the incremental path: with refits disabled
			// every publish after the first must advance, never rebuild, and
			// no /task request may have found a stale plan.
			for _, st := range []Stats{s1.Stats(), sN.Stats()} {
				if st.PlanAdvances == 0 {
					t.Fatalf("no plan advances recorded: %+v", st)
				}
				if st.PlanFallbacks != 0 {
					t.Fatalf("plan fallbacks on the request path: %+v", st)
				}
				if st.PlanBuilds != 1 {
					t.Fatalf("plan builds = %d, want 1 (the initial fit)", st.PlanBuilds)
				}
			}
		})
	}
}

// TestShardedIngestStorm hammers a 4-shard server from concurrent workers —
// /task + /answer + open-world growth + reads — then closes it and checks
// no acknowledged answer was lost. Run with -race: it is the concurrency
// pin for the epoch fold (shards folding into one cloned model in
// parallel) and the publish/advance path.
func TestShardedIngestStorm(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 9, Scale: 0.1})
	s, err := New(Config{
		Dataset:     ds.Clone(),
		Engine:      engine.NewCategorical(infer.NewTDH(), engine.Config{}),
		Assigner:    assign.EAI{},
		K:           2,
		Seed:        1,
		OpenAnswers: true,
		// Small batches + frequent refits keep every pipeline path hot.
		Policy: RefitPolicy{MaxAnswers: 40, MaxStaleness: -1, BatchSize: 8, Shards: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	objs := s.SortedObjects()
	snap := s.Snapshot()
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 25; i++ {
				o := objs[rng.Intn(len(objs))]
				vals := snap.Idx.View(o).CI.Values
				resp := postJSON(t, ts.URL+"/answer", data.Answer{
					Worker: fmt.Sprintf("storm%d", w), Object: o, Value: vals[rng.Intn(len(vals))],
				})
				if resp.StatusCode == 200 {
					accepted.Add(1)
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
			postJSON(t, ts.URL+"/objects", AddObjectRequest{
				Object: fmt.Sprintf("storm-obj-%d", i), Candidates: donor,
			})
			var st Stats
			getJSON(t, ts.URL+"/stats", &st)
			if len(st.ShardQueueDepth) != 4 {
				t.Errorf("shard_queue_depth has %d entries, want 4", len(st.ShardQueueDepth))
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
	if st := s.Stats(); st.PlanFallbacks != 0 {
		t.Fatalf("plan fallbacks under storm: %d", st.PlanFallbacks)
	}
}
