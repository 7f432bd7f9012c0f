// Package repro_bench holds the top-level benchmark harness: one benchmark
// per table and figure of the paper (regenerating the reported rows at a
// reduced scale) plus micro-benchmarks for the hot paths (EM iteration,
// incremental EM, EAI assignment with and without the UEAI pruning bound).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The full paper-scale experiments are driven by cmd/bench instead, where
// wall-clock budgets are not constrained by the benchmark framework.
package repro_bench

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/eventlog"
	"repro/internal/experiments"
	"repro/internal/infer"
	"repro/internal/server"
	"repro/internal/synth"
)

// benchCfg is the reduced-scale configuration used by the per-experiment
// benchmarks: large enough to exercise every code path, small enough for
// -bench runs.
func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.05, Rounds: 4, Seed: 7, EvalEvery: 2}
}

// --- One benchmark per table / figure -----------------------------------

func BenchmarkFig1SourceTendencies(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig1(cfg)
	}
}

func BenchmarkTable3TruthInference(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Table3(cfg)
	}
}

func BenchmarkFig5SourceReliability(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig5(cfg)
	}
}

func BenchmarkFig6TaskAssignmentCurves(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig6(cfg)
	}
}

func BenchmarkFig7ImprovementEstimates(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig7(cfg)
	}
}

func BenchmarkTable4AllCombos(b *testing.B) {
	cfg := benchCfg()
	cfg.Rounds = 2
	for i := 0; i < b.N; i++ {
		experiments.Table4(cfg)
	}
}

func BenchmarkFig8to10HeadlineCurves(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig8to10(cfg)
	}
}

func BenchmarkFig11WorkerQualitySweep(b *testing.B) {
	cfg := benchCfg()
	cfg.Rounds = 2
	for i := 0; i < b.N; i++ {
		experiments.Fig11(cfg)
	}
}

func BenchmarkFig12ExecutionTimes(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig12(cfg)
	}
}

func BenchmarkFig13PruningScalability(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig13(cfg)
	}
}

func BenchmarkFig14to16HumanAnnotators(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig14to16(cfg)
	}
}

func BenchmarkFig17AMT(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig17(cfg)
	}
}

func BenchmarkTable5MultiTruth(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Table5(cfg)
	}
}

func BenchmarkTable6Numeric(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Table6(cfg)
	}
}

// --- Micro-benchmarks: inference ----------------------------------------

func birthPlacesIndex(scale float64) *data.Index {
	ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: scale})
	return data.NewIndex(ds)
}

func heritagesIndex(scale float64) *data.Index {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: scale})
	return data.NewIndex(ds)
}

func BenchmarkTDHInferBirthPlaces(b *testing.B) {
	idx := birthPlacesIndex(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Run(idx, core.DefaultOptions())
	}
}

func BenchmarkTDHInferHeritages(b *testing.B) {
	idx := heritagesIndex(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Run(idx, core.DefaultOptions())
	}
}

// BenchmarkInferencers times every Table 3 algorithm on the same workload —
// the microscopic version of Figure 12's left panel.
func BenchmarkInferencers(b *testing.B) {
	idx := birthPlacesIndex(0.05)
	for _, alg := range experiments.InferencersInPaperOrder() {
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alg.Infer(idx)
			}
		})
	}
}

// --- Micro-benchmarks: task assignment ----------------------------------

// assignmentContext is one round's assignment input on Heritages: a fitted
// TDH result and a 10-worker pool. With history, the pool first answers 20
// objects each, so every worker has a fitted ψ and EAI scores it with the
// incremental EM (eaiAt) under that ψ, as a /task for a returning worker does.
func assignmentContext(b *testing.B, scale float64, history bool) *assign.Context {
	b.Helper()
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: scale})
	workers := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: 7, Count: 10, Pi: 0.75})
	names := make([]string, len(workers))
	for i, w := range workers {
		names[i] = w.Name
	}
	if history {
		idx := data.NewIndex(ds)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 20*len(workers); i++ {
			w, ov := workers[i%len(workers)], idx.ViewAt((i*37)%idx.NumObjects())
			ds.Answers = append(ds.Answers, data.Answer{Object: ov.Object, Worker: w.Name, Value: w.Answer(rng, ds, ov)})
		}
	}
	idx := data.NewIndex(ds)
	return &assign.Context{Idx: idx, Res: infer.NewTDH().Infer(idx), Workers: names, K: 5, Seed: 7}
}

func BenchmarkEAIAssignWithPruning(b *testing.B) {
	ctx := assignmentContext(b, 0.25, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.EAI{}.Assign(ctx)
	}
}

func BenchmarkEAIAssignNoPruning(b *testing.B) {
	ctx := assignmentContext(b, 0.25, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.EAI{DisablePruning: true}.Assign(ctx)
	}
}

func BenchmarkQASCAAssign(b *testing.B) {
	ctx := assignmentContext(b, 0.25, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.QASCA{}.Assign(ctx)
	}
}

func BenchmarkMEAssign(b *testing.B) {
	ctx := assignmentContext(b, 0.25, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.ME{}.Assign(ctx)
	}
}

// BenchmarkIncrementalEM times the single-answer conditional-confidence
// update (Eq. 18) — the inner loop of EAI.
func BenchmarkIncrementalEM(b *testing.B) {
	idx := heritagesIndex(0.25)
	m := core.Run(idx, core.DefaultOptions())
	psi := m.DefaultPsi()
	objs := idx.Objects
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := objs[i%len(objs)]
		m.CondMaxConfidence(o, psi, 0)
	}
}

// BenchmarkDatasetGeneration times the synthetic substrates.
func BenchmarkDatasetGeneration(b *testing.B) {
	b.Run("BirthPlaces", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			synth.BirthPlaces(synth.BirthPlacesConfig{Seed: int64(i), Scale: 0.1})
		}
	})
	b.Run("Heritages", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			synth.Heritages(synth.HeritagesConfig{Seed: int64(i), Scale: 0.1})
		}
	})
	b.Run("Stock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			synth.Stock(synth.StockConfig{Seed: int64(i), Symbols: 100})
		}
	})
}

// BenchmarkTaskThroughput measures cold-worker /task serving: every request
// arrives from a worker with no pending assignment, so each one runs the
// full EAI assignment path against the published snapshot. With the
// snapshot-resident plan this is a bounded scan over precomputed UEAI
// bounds; without it (pre-planner) every request rebuilt an O(|O|) bound
// map plus an O(|O| log |O|) heap.
func BenchmarkTaskThroughput(b *testing.B) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: 0.25})
	srv, err := server.New(server.Config{
		Dataset:  ds,
		Engine:   engine.NewCategorical(infer.NewTDH()),
		Assigner: assign.EAI{},
		K:        5,
		Seed:     7,
		// No answers arrive, so no refits: every request hits one snapshot.
		Policy: server.RefitPolicy{MaxAnswers: -1, MaxStaleness: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", fmt.Sprintf("/task?worker=cold-%d", i), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("task %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "tasks/sec")
	}
}

// BenchmarkServerThroughput measures the crowd server's ingest rate
// (answers/sec, the per-iteration metric) while concurrent readers hammer
// the snapshot-served read endpoints. Because reads take no lock shared
// with inference, the reported reads/sec stays high even though the
// pipeline keeps triggering full refits in the background — the
// acceptance check for the async snapshot architecture.
func BenchmarkServerThroughput(b *testing.B) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: 0.1})
	srv, err := server.New(server.Config{
		Dataset:     ds,
		Engine:      engine.NewCategorical(infer.NewTDH()),
		Assigner:    assign.EAI{},
		OpenAnswers: true, // benchmark workers answer arbitrary objects
		Policy:      server.RefitPolicy{MaxAnswers: 256, MaxStaleness: 50 * time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	snap := srv.Snapshot()
	objs := srv.SortedObjects()
	vals := make([]string, len(objs))
	for i, o := range objs {
		vals[i] = snap.Idx.View(o).CI.Values[0]
	}

	// Background readers: count snapshot reads completed during the write
	// loop to show reads are never blocked behind a refit.
	var reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("GET", "/truths", nil)
				h.ServeHTTP(httptest.NewRecorder(), req)
				reads.Add(1)
			}
		}()
	}

	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := objs[i%len(objs)]
		body := fmt.Sprintf(`{"worker":"bw-%d","object":%q,"value":%q}`,
			i, o, vals[i%len(objs)])
		req := httptest.NewRequest("POST", "/answer", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("answer %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	if secs := elapsed.Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "answers/sec")
		b.ReportMetric(float64(reads.Load())/secs, "reads/sec")
	}
}

// BenchmarkNumericIngest measures a numeric campaign's answer ingest rate:
// workers submit typed {"num": ...} payloads, every accepted batch re-runs
// the CRH estimator over sources + worker pseudo-sources (numeric engines
// have no incremental path by design — re-estimation IS the fold), and
// reads keep serving the published estimates. The per-iteration answers/sec
// is the numeric-truth-model counterpart of BenchmarkServerThroughput.
func BenchmarkNumericIngest(b *testing.B) {
	attr := synth.Stock(synth.StockConfig{Seed: 7, Symbols: 300})[0]
	ds := &data.Dataset{Name: "stock-" + attr.Name, Records: attr.Records, Truth: map[string]string{}}
	for o, v := range attr.Gold {
		ds.Truth[o] = fmt.Sprintf("%g", v)
	}
	eng, err := engine.New(engine.Numeric, "CRH", engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Dataset:     ds,
		Engine:      eng,
		Assigner:    assign.ME{},
		OpenAnswers: true, // benchmark workers answer arbitrary objects
		Policy:      server.RefitPolicy{MaxAnswers: 256, MaxStaleness: 50 * time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	objs := srv.SortedObjects()
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := objs[i%len(objs)]
		body := fmt.Sprintf(`{"worker":"bw-%d","object":%q,"num":%g}`,
			i, o, attr.Gold[o]*(1+0.01*float64(i%7)))
		req := httptest.NewRequest("POST", "/answer", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("answer %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "answers/sec")
	}
}

// BenchmarkLiveGrowth measures open-world ingest: durable answer
// throughput while the campaign's dataset keeps growing. The "closed"
// variant is the baseline (answers only); the "growing" variant interleaves
// one POST /objects + POST /records pair every 32 answers, so each sample
// pays for the event-log commit AND the pipeline folding mutations into
// fresh snapshots via Index.Extend + Model.Grow. The delta between the two
// is the price of living in an open world.
func BenchmarkLiveGrowth(b *testing.B) {
	for _, grow := range []struct {
		name  string
		every int // one object+record pair per this many operations; 0 = never
	}{{"closed", 0}, {"growing", 32}} {
		b.Run(grow.name, func(b *testing.B) {
			log, err := eventlog.Open(filepath.Join(b.TempDir(), "events.jsonl"))
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			ds := synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: 0.1})
			srv, err := server.New(server.Config{
				Dataset:     ds,
				Engine:      engine.NewCategorical(infer.NewTDH()),
				Assigner:    assign.EAI{},
				OpenAnswers: true,
				Log:         log,
				Policy:      server.RefitPolicy{MaxAnswers: 256, MaxStaleness: 50 * time.Millisecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()
			snap := srv.Snapshot()
			objs := srv.SortedObjects()
			vals := make([]string, len(objs))
			for i, o := range objs {
				vals[i] = snap.Idx.View(o).CI.Values[0]
			}
			hnodes := ds.H.Nodes()

			var seq, added atomic.Int64
			start := time.Now()
			b.ResetTimer()
			b.SetParallelism(16)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(seq.Add(1))
					if grow.every > 0 && i%grow.every == 0 {
						o := fmt.Sprintf("grown-%d", i)
						body := fmt.Sprintf(`{"object":%q,"candidates":[%q,%q]}`,
							o, hnodes[i%len(hnodes)], hnodes[(i+1)%len(hnodes)])
						req := httptest.NewRequest("POST", "/objects", strings.NewReader(body))
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, req)
						if rec.Code != 200 {
							b.Fatalf("add object %d: %d: %s", i, rec.Code, rec.Body.String())
						}
						body = fmt.Sprintf(`{"object":%q,"source":"stream-src","value":%q}`,
							o, hnodes[i%len(hnodes)])
						req = httptest.NewRequest("POST", "/records", strings.NewReader(body))
						rec = httptest.NewRecorder()
						h.ServeHTTP(rec, req)
						if rec.Code != 200 {
							b.Fatalf("add record %d: %d: %s", i, rec.Code, rec.Body.String())
						}
						added.Add(1)
						continue
					}
					oi := i % len(objs)
					body := fmt.Sprintf(`{"worker":"bw-%d","object":%q,"value":%q}`, i, objs[oi], vals[oi])
					req := httptest.NewRequest("POST", "/answer", strings.NewReader(body))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != 200 {
						b.Fatalf("answer %d: %d: %s", i, rec.Code, rec.Body.String())
					}
				}
			})
			b.StopTimer()
			if secs := time.Since(start).Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "ops/sec")
				b.ReportMetric(float64(added.Load())/secs, "objects/sec")
			}
		})
	}
}

// BenchmarkTracedIngest is the lineage-tentpole overhead pin: the ingest
// pipeline's incremental path — POST /answer through the epoch fold to a
// publish with the assignment plan advanced in the pipeline goroutine, with
// refits disabled — interleaved A/B between tracing disabled and the
// default probabilistic sampling (1-in-64 requests carry a full span tree;
// watermarks and sequence numbers are maintained in both). The acceptance
// bound is ≤2% answers/sec regression for the "default" variant — the
// unsampled hot path pays one traceparent parse, one nil recorder check and
// one seq increment.
func BenchmarkTracedIngest(b *testing.B) {
	for _, mode := range []struct {
		name   string
		sample int // Config.TraceSampleEvery: <0 never, 0 default 1-in-64
	}{{"off", -1}, {"default", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			ds := synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: 0.1})
			srv, err := server.New(server.Config{
				Dataset:     ds,
				Engine:      engine.NewCategorical(infer.NewTDH()),
				Assigner:    assign.EAI{},
				OpenAnswers: true, // benchmark workers answer arbitrary objects
				Policy: server.RefitPolicy{
					MaxAnswers: -1, MaxStaleness: -1,
				},
				TraceSampleEvery: mode.sample,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()
			snap := srv.Snapshot()
			objs := srv.SortedObjects()
			vals := make([]string, len(objs))
			for i, o := range objs {
				vals[i] = snap.Idx.View(o).CI.Values[0]
			}
			var seq atomic.Int64
			start := time.Now()
			b.ResetTimer()
			b.SetParallelism(16)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(seq.Add(1))
					oi := i % len(objs)
					body := fmt.Sprintf(`{"worker":"bw-%d","object":%q,"value":%q}`, i, objs[oi], vals[oi])
					req := httptest.NewRequest("POST", "/answer", strings.NewReader(body))
					req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != 200 {
						b.Fatalf("answer %d: status %d: %s", i, rec.Code, rec.Body.String())
					}
				}
			})
			b.StopTimer()
			if secs := time.Since(start).Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "answers/sec")
			}
		})
	}
}

// BenchmarkPlanAdvance compares the two ways a publish can obtain its
// assignment plan after an incremental fold touching a small object set:
// building from scratch (NewPlan + Prewarm — O(Σ|Vo| + |O| log |O|) plus
// |O| cold-worker EAI evaluations) versus advancing the previous snapshot's
// plan around the touched objects (page-table clones + O(batch) page copies
// and re-ranks).
// The dataset is BirthPlaces at ≥10k objects — the regime where the
// per-publish NewPlan was the wall between publish rate and corpus size.
func BenchmarkPlanAdvance(b *testing.B) {
	ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: 2})
	idx := data.NewIndex(ds)
	// Plan construction cost does not depend on fit quality; a capped fit
	// keeps the benchmark setup seconds, not minutes.
	opts := core.DefaultOptions()
	opts.MaxIter = 3
	m := core.Run(idx, opts)
	res := infer.ViewOf(m, nil)
	b.Logf("objects: %d", idx.NumObjects())

	// One incremental publish: 64 answers spread over 16 objects.
	m2 := m.Clone()
	var touched []int
	for i := 0; i < 64; i++ {
		oid := (i * 131) % 16
		o := idx.Objects[oid]
		m2.ApplyAnswer(o, fmt.Sprintf("bw-%d", i%8), 0)
		touched = append(touched, oid)
	}
	res2 := infer.ViewOf(m2, nil)

	prev := assign.NewPlan(idx, res)
	prev.Prewarm()
	b.Run("NewPlan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := assign.NewPlan(idx, res2)
			p.Prewarm()
		}
	})
	b.Run("Advance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, ok := prev.Advance(idx, res2, touched)
			if !ok {
				b.Fatal("Advance fell back to a full build")
			}
			p.Prewarm()
		}
	})
}

// BenchmarkSealCycle times one coordinator cycle as the server pipeline runs
// it — open an epoch, fold three answers, seal, advance the previous
// snapshot's plan around the touched objects — at 1.2k, 12k and 48k objects,
// per stage and whole (ns/op, B/op and allocs/op are the whole cycle's). No
// stage copies per object: opening clones three page tables, the fold copies
// the pages its answers land in, the seal is a view, and Advance clones page
// and chunk tables and re-ranks the touched objects. The three rows print
// the curve — flat but for the tables, a slice header per 256 objects —
// that TestSealCycleIsDeltaProportional pins in bytes.
func BenchmarkSealCycle(b *testing.B) {
	for _, scale := range []float64{0.2, 2, 8} {
		c := newSealCycle(b, scale)
		b.Run(fmt.Sprintf("objects=%d", c.idx.NumObjects()), func(b *testing.B) {
			b.ReportAllocs()
			var open, fold, seal, advance time.Duration
			for i := 0; i < b.N; i++ {
				o, f, s, a := c.run(b, i)
				open, fold, seal, advance = open+o, fold+f, seal+s, advance+a
			}
			n := float64(b.N)
			b.ReportMetric(float64(open.Nanoseconds())/n, "open-ns/op")
			b.ReportMetric(float64(fold.Nanoseconds())/n, "fold-ns/op")
			b.ReportMetric(float64(seal.Nanoseconds())/n, "seal-ns/op")
			b.ReportMetric(float64(advance.Nanoseconds())/n, "advance-ns/op")
		})
	}
}

// sealCycle is a fitted BirthPlaces campaign with its prewarmed plan: the
// state one coordinator cycle starts from.
type sealCycle struct {
	idx  *data.Index
	eng  engine.Engine
	st   engine.State
	plan *assign.Plan
}

func newSealCycle(tb testing.TB, scale float64) *sealCycle {
	ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: scale})
	c := &sealCycle{idx: data.NewIndex(ds)}
	opts := core.DefaultOptions()
	opts.MaxIter = 3 // cycle cost does not depend on fit quality
	c.eng = engine.NewCategorical(infer.TDH{Opt: opts})
	c.st = c.eng.Fit(c.idx)
	c.plan = assign.NewPlan(c.idx, c.st.Res())
	c.plan.Prewarm()
	return c
}

// run is cycle i as the pipeline runs it: open an epoch over the current
// state, fold three answers, seal, advance and prewarm the plan.
func (c *sealCycle) run(tb testing.TB, i int) (open, fold, seal, advance time.Duration) {
	batch := make([]data.Answer, 3)
	for j := range batch {
		ov := c.idx.ViewAt((i*3 + j) * 131 % c.idx.NumObjects())
		batch[j] = data.Answer{Object: ov.Object, Worker: fmt.Sprintf("bw-%d", i%8), Value: ov.CI.Values[0]}
	}
	t0 := time.Now()
	ep, ok := c.eng.NewEpoch(c.st, c.idx)
	if !ok {
		tb.Fatal("TDH state refused to open an epoch")
	}
	t1 := time.Now()
	ep.Fold(batch)
	t2 := time.Now()
	c.st = ep.Seal()
	t3 := time.Now()
	if c.plan, ok = c.plan.Advance(c.idx, c.st.Res(), ep.Touched()); !ok {
		tb.Fatal("Advance fell back to a full build")
	}
	c.plan.Prewarm()
	return t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), time.Since(t3)
}

// TestSealCycleIsDeltaProportional pins the cycle's cost structurally, in
// bytes allocated, not in time: one open → fold(3 answers) → seal → Advance →
// Prewarm cycle over 12,010 objects may allocate at most twice what it does
// over 1,201, and at most 160 KB (the flat Model.Clone + Plan.Advance it
// replaced allocated 1.87 MB at 12k objects, 197 KB at 1.2k). What is left
// to grow with |O| is the page and chunk tables, a slice header per 256
// objects; a per-object copy that creeps back into the cycle fails here.
func TestSealCycleIsDeltaProportional(t *testing.T) {
	perCycle := func(scale float64) (objects int, bytes float64) {
		c := newSealCycle(t, scale)
		c.run(t, 0) // measured cycles all advance an advanced plan, like the pipeline's
		const cycles = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 1; i <= cycles; i++ {
			c.run(t, i)
		}
		runtime.ReadMemStats(&after)
		return c.idx.NumObjects(), float64(after.TotalAlloc-before.TotalAlloc) / cycles
	}
	nSmall, small := perCycle(0.2)
	nLarge, large := perCycle(2)
	t.Logf("bytes per cycle: %.0f at %d objects, %.0f at %d objects", small, nSmall, large, nLarge)
	if nSmall != 1201 || nLarge != 12010 {
		t.Fatalf("fixture sizes moved: %d and %d objects", nSmall, nLarge)
	}
	if large > 2*small {
		t.Fatalf("a cycle allocates %.0f bytes at %d objects, more than twice the %.0f at %d: something copies per object again", large, nLarge, small, nSmall)
	}
	if large > 160<<10 {
		t.Fatalf("a cycle allocates %.0f bytes at %d objects, over the 160 KB budget", large, nLarge)
	}
}

// BenchmarkCampaignIngest measures durable multi-campaign answer ingest:
// four concurrent campaigns hosted by one manager under a shared data
// directory, every accepted answer fsync'd to its campaign's answer log
// before the 200 acknowledgment. With per-answer fsync the disk's sync
// rate caps the whole process; the answer log's group commit batches
// concurrent appends into one fsync per campaign, so the reported
// answers/sec is the multi-tenant ingest ceiling.
func BenchmarkCampaignIngest(b *testing.B) {
	mgr, err := campaign.Open(b.TempDir(), campaign.Options{})
	if err != nil {
		b.Fatal(err)
	}
	const nCampaigns = 4
	ids := make([]string, nCampaigns)
	objs := make([][]string, nCampaigns)
	vals := make([][]string, nCampaigns)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%d", i)
		ds := synth.Heritages(synth.HeritagesConfig{Seed: int64(7 + i), Scale: 0.1})
		if _, err := mgr.Create(campaign.Spec{
			ID:          ids[i],
			OpenAnswers: true, // benchmark workers answer arbitrary objects
			Policy:      campaign.PolicySpec{RefitAnswers: 256, RefitStalenessMS: 50},
		}, ds); err != nil {
			b.Fatal(err)
		}
		if err := mgr.Start(ids[i]); err != nil {
			b.Fatal(err)
		}
		c, _ := mgr.Get(ids[i])
		snap := c.Server().Snapshot()
		objs[i] = c.Server().SortedObjects()
		vals[i] = make([]string, len(objs[i]))
		for j, o := range objs[i] {
			vals[i][j] = snap.Idx.View(o).CI.Values[0]
		}
	}
	h := mgr.Handler()
	var seq atomic.Int64
	start := time.Now()
	b.ResetTimer()
	// Workers are blocked on the durable ack (fsync), not on a core: model
	// many concurrent connections even on small GOMAXPROCS.
	b.SetParallelism(16)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(seq.Add(1))
			ci := i % nCampaigns
			oi := (i / nCampaigns) % len(objs[ci])
			body := fmt.Sprintf(`{"worker":"bw-%d","object":%q,"value":%q}`,
				i, objs[ci][oi], vals[ci][oi])
			req := httptest.NewRequest("POST", "/v1/campaigns/"+ids[ci]+"/answer", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("answer %d: status %d: %s", i, rec.Code, rec.Body.String())
			}
		}
	})
	b.StopTimer()
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "answers/sec")
	}
	if err := mgr.Close(); err != nil {
		b.Fatal(err)
	}
}
