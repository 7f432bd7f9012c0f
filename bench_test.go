// Package repro_bench holds the hot-path benchmarks no single package owns:
// EAI assignment with and without the UEAI pruning bound and for one
// returning or one never-seen worker's /task, the one-answer incremental EM
// fold every served answer runs, the tracing overhead on the ingest path, and
// one coordinator cycle (fold, seal, plan advance) across corpus sizes.
//
//	go test -run='^$' -bench=. -benchmem .
//
// Serving is measured end to end by the benchmark/ module (BENCHMARK.json),
// the paper's tables and figures by cmd/experiments, and single kernels by
// their packages' own benchmarks.
package repro_bench

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/server"
	"repro/internal/synth"
)

// assignmentContext is one round's assignment input on Heritages at scale:
// a fitted TDH result and a pool of nWorkers workers that has first answered
// perWorker objects each, so every worker has a fitted ψ and EAI scores it
// with the incremental EM (eaiAt) under that ψ, as a /task for a returning
// worker does.
func assignmentContext(b *testing.B, scale float64, nWorkers, perWorker int) *assign.Context {
	b.Helper()
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: scale})
	workers := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: 7, Count: nWorkers, Pi: 0.75})
	names := make([]string, len(workers))
	for i, w := range workers {
		names[i] = w.Name
	}
	idx := data.NewIndex(ds)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < perWorker*len(workers); i++ {
		w, ov := workers[i%len(workers)], idx.ViewAt((i*37)%idx.NumObjects())
		ds.Answers = append(ds.Answers, data.Answer{Object: ov.Object, Worker: w.Name, Value: w.Answer(rng, ds, ov)})
	}
	idx = data.NewIndex(ds)
	return &assign.Context{Idx: idx, Res: infer.NewTDH().Infer(idx), Workers: names, K: 5, Seed: 7}
}

func BenchmarkEAIAssignWithPruning(b *testing.B) {
	ctx := assignmentContext(b, 0.25, 10, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.EAI{}.Assign(ctx)
	}
}

func BenchmarkEAIAssignNoPruning(b *testing.B) {
	ctx := assignmentContext(b, 0.25, 10, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.EAI{DisablePruning: true}.Assign(ctx)
	}
}

// BenchmarkEAITask is one GET /task for a returning worker, as the server
// assigns it: Heritages ×1 fitted with a campaign's worth of answers (25
// from each of 256 workers, ~8 per object), the plan an EAI campaign
// publishes (assign.PlanFor) attached, K = 5, and one worker with a fitted
// ψ per call, in turn. Such a worker scores objects itself (the plan
// caches only the prior-mean ψ), so the call is Algorithm 1's scan with one
// EAI evaluation per object the bound does not prune; evaluated/op and
// pruned/op report how far it walks, and settled/op how many of its
// evaluations the no-flip certificate answered with an O(|V|) read.
func BenchmarkEAITask(b *testing.B) {
	base := assignmentContext(b, 1, 256, 25)
	plan := assign.PlanFor(assign.EAI{}, base.Idx, base.Res)
	var evaluated, pruned, settled int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := *base
		ctx.Plan, ctx.Workers, ctx.Seed = plan, base.Workers[i%len(base.Workers):][:1], int64(i)
		_, st := assign.EAI{}.AssignWithStats(&ctx)
		evaluated, pruned, settled = evaluated+st.Evaluated, pruned+st.Pruned, settled+st.Settled
	}
	b.ReportMetric(float64(evaluated)/float64(b.N), "evaluated/op")
	b.ReportMetric(float64(pruned)/float64(b.N), "pruned/op")
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
}

// BenchmarkEAIColdTask is one GET /task for a worker the campaign has never
// seen, as ingest_publish serves its sessions: BirthPlaces ×2 (12,010
// objects) fitted on its sources alone, the plan an EAI campaign publishes
// (assign.PlanFor) attached, K = 5, and a new worker per call. Such a
// worker sits at the prior-mean ψ, so the call reads the head of the plan's
// cold-worker score ranking instead of walking Algorithm 1's scan;
// evaluated/op reports how many ranking entries it read. Each call's assignment must equal the
// scan's for that worker: the same call without a plan, run before the
// timer, which scores every object it visits with eaiAt. settled/op is how
// many of that scan's evaluations the no-flip certificate answered.
func BenchmarkEAIColdTask(b *testing.B) {
	idx := data.NewIndex(synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: 2}))
	res := infer.NewTDH().Infer(idx)
	plan := assign.PlanFor(assign.EAI{}, idx, res)
	base := assign.Context{Idx: idx, Res: res, K: 5, Seed: 7}
	workers := make([]string, 64)
	want := make([][]string, len(workers))
	var ref assign.EAIStats
	for i := range workers {
		workers[i] = fmt.Sprintf("cold-%d", i)
		scan := base
		scan.Workers = workers[i:][:1]
		var out map[string][]string
		out, ref = assign.EAI{}.AssignWithStats(&scan)
		want[i] = out[workers[i]]
	}
	evaluated := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := base
		w := i % len(workers)
		ctx.Plan, ctx.Workers = plan, workers[w:][:1]
		out, st := assign.EAI{}.AssignWithStats(&ctx)
		if !slices.Equal(out[workers[w]], want[w]) {
			b.Fatalf("%s: the plan assigned %v, the scan %v", workers[w], out[workers[w]], want[w])
		}
		evaluated += st.Evaluated
	}
	b.ReportMetric(float64(evaluated)/float64(b.N), "evaluated/op")
	b.ReportMetric(float64(ref.Settled), "settled/op")
}

// BenchmarkIncrementalEM times the one-answer incremental EM step (Eqs.
// 16–17) as the server folds every accepted answer: ApplyAnswerAt into a
// clone's pages, each already owned (the clone's first fold into a page, a
// copy, is paid once before the timer), by workers with a fitted ψ.
func BenchmarkIncrementalEM(b *testing.B) {
	idx := assignmentContext(b, 0.25, 10, 20).Idx
	m := core.Run(idx, core.DefaultOptions()).Clone()
	for oid := 0; oid < m.NumObjects(); oid++ {
		m.ApplyAnswerAt(oid, oid%len(m.Psi), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oid := i % m.NumObjects()
		m.ApplyAnswerAt(oid, i%len(m.Psi), i%len(m.MuAt(oid)))
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
// building from scratch (O(Σ|Vo| + |O| log |O|) per part, plus |O|
// cold-worker EAI evaluations for EAI's cold cache) versus advancing the
// previous snapshot's plan around the touched objects (page-table clones +
// O(batch) page copies and re-ranks). Each plan is the one a campaign
// publishes (assign.PlanFor): EAI's rows build the bounds, the cold cache
// and the settled count; ME's rows the entropy ranking alone, no cold cache.
// The dataset is BirthPlaces at ≥10k objects — the regime where the
// per-publish build was the wall between publish rate and corpus size.
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
		m2.ApplyAnswerAt(oid, -1, 0) // workers the index has never seen
		touched = append(touched, oid)
	}
	res2 := infer.ViewOf(m2, nil)

	for _, asg := range []assign.Assigner{assign.EAI{}, assign.ME{}} {
		prev := assign.PlanFor(asg, idx, res)
		b.Run("NewPlan/"+asg.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				assign.PlanFor(asg, idx, res2)
			}
		})
		b.Run("Advance/"+asg.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := prev.Advance(idx, res2, touched); !ok {
					b.Fatal("Advance fell back to a full build")
				}
			}
		})
	}
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

// sealCycle is a fitted BirthPlaces EAI campaign with the plan it publishes
// (assign.PlanFor): the state one coordinator cycle starts from.
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
	c.plan = assign.PlanFor(assign.EAI{}, c.idx, c.st.Res())
	return c
}

// run is cycle i as the pipeline runs it: open an epoch over the current
// state, fold three answers, seal, advance the plan.
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
	return t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), time.Since(t3)
}

// TestSealCycleIsDeltaProportional pins the cycle's cost structurally, in
// bytes allocated, not in time: one open → fold(3 answers) → seal → Advance
// cycle over 12,010 objects may allocate at most twice what it does
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
