package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/infer"
	"repro/internal/synth"
)

// batchInputs are the generated inputs of the offline loop.
type batchInputs struct {
	ds      *data.Dataset
	workers []synth.Worker
	rounds  int
}

func generateBatch(p params) batchInputs {
	return batchInputs{
		ds:      synth.BirthPlaces(synth.BirthPlacesConfig{Seed: p.seed, Scale: p.scale}),
		workers: synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: p.seed, Count: batchWorkers, Pi: workerAccuracy}),
		rounds:  max(1, int(batchRoundsPerSecond*p.seconds)),
	}
}

// loop runs the paper's crowdsourcing loop (the Fig. 12 experiment) for the
// given number of rounds, scoring only round 0 and the final round.
func (in batchInputs) loop(seed int64, rounds int) *crowd.Trace {
	return crowd.RunLoop(in.ds, infer.NewTDH(), assign.EAI{}, crowd.Config{
		Rounds: rounds, K: sessionK, Seed: seed, Workers: in.workers, EvalEvery: rounds + 1,
	})
}

// runBatch runs the crowd_batch workload once: the offline loop with no
// server, log or HTTP. The serving-shaped end-to-end metrics are reported
// from the loop's equivalent steps (see the README): task = one worker's
// share of a round's assignment, visibility = a round's inference (collected
// answers → truths), restart = dataset file → index → truths.
func runBatch(p params, root string, traced bool) (*runResult, error) {
	res := &runResult{Workload: p.workload, Seed: p.seed, Traced: traced, Metrics: map[string]float64{}}
	var rec *recorder
	if traced {
		rec = newRecorder(fmt.Sprintf("%s-seed%d", p.workload, p.seed))
	}
	dir, err := os.MkdirTemp(root, "data-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dsPath := filepath.Join(dir, "dataset.json")

	// Set-up: generate, save the dataset a cold start reads, and do what the
	// loop does in round 0 before it assigns anything: index, infer, score.
	// (RunLoop cannot be asked for zero rounds: 0 means its default 50.)
	var setups, generates []float64
	var in batchInputs
	var round0 eval.Scores
	timedSetUp := func() error {
		runtime.GC()
		t := time.Now()
		in = generateBatch(p)
		generates = append(generates, ms(time.Since(t)))
		rec.add("synth.generate", 0, t, time.Now())
		if err := data.SaveFile(dsPath, in.ds); err != nil {
			return err
		}
		idx := data.NewIndex(in.ds)
		round0 = eval.Evaluate(in.ds, idx, infer.NewTDH().Infer(idx).Truths)
		setups = append(setups, time.Since(t).Seconds())
		return nil
	}
	for i := 0; i < setupsBefore; i++ {
		if err := timedSetUp(); err != nil {
			return nil, err
		}
	}

	var memBefore, memAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	cpu0 := cpuTime()
	t0 := time.Now()
	var tr *crowd.Trace
	rec.timed("crowd.run_loop", 0, func() { tr = in.loop(p.seed, in.rounds) })
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&memAfter)
	peakRSS := peakRSSMB() // set-up and drive; what follows are the benchmark's own repeats

	final := tr.Rounds[len(tr.Rounds)-1]
	answers := final.Answers - tr.Rounds[0].Answers
	if answers <= 0 {
		return nil, fmt.Errorf("the loop collected no answers over %d rounds", in.rounds)
	}
	var inferMS, assignMS []float64
	for _, r := range tr.Rounds {
		inferMS = append(inferMS, ms(r.InferTime))
		if r.Round < in.rounds {
			assignMS = append(assignMS, ms(r.AssignTime))
		}
	}

	// Cold start: the saved dataset → index → truths, what `tdh -in` waits
	// for, with as many throwaway set-ups in between.
	var restarts []float64
	var loadMS, indexMS, fitMS []float64
	var ds *data.Dataset
	var idx *data.Index
	var out *infer.Result
	for i := 0; i < p.rotations(); i++ {
		if err := timedSetUp(); err != nil {
			return nil, err
		}
		runtime.GC()
		root := rec.open("restart", 0, time.Now())
		t := time.Now()
		loadMS = append(loadMS, ms(rec.timed("data.load_file", root, func() { ds, err = data.LoadFile(dsPath) })))
		if err != nil {
			return nil, err
		}
		indexMS = append(indexMS, ms(rec.timed("data.new_index", root, func() { idx = data.NewIndex(ds) })))
		fitMS = append(fitMS, ms(rec.timed("engine.fit", root, func() { out = infer.NewTDH().Infer(idx) })))
		restarts = append(restarts, time.Since(t).Seconds())
		rec.close(root, time.Now())
	}

	// Determinism: two short same-seed loops must agree on every score.
	a, b := in.loop(p.seed, 2), in.loop(p.seed, 2)
	res.Attempted, res.Failed = in.rounds+1, 0
	res.check("final accuracy >= round 0", final.Scores.Accuracy >= tr.Rounds[0].Scores.Accuracy,
		"final %.4f, round 0 %.4f", final.Scores.Accuracy, tr.Rounds[0].Scores.Accuracy)
	res.check("same seed, same scores", reflect.DeepEqual(scoresOf(a), scoresOf(b)), "two same-seed loops disagree")
	res.check("set-up is repeatable", round0 == tr.Rounds[0].Scores, "round 0 of the set-up and of the drive disagree")
	if p.scale == 1 {
		floor := accuracyFloor[p.workload]
		res.check("accuracy >= pinned floor", final.Scores.Accuracy >= floor, "final %.4f, floor %.4f", final.Scores.Accuracy, floor)
	}

	// The per-round figures are means over the rounds, not medians: on a host
	// that runs at one of two speeds (see typical) the median of seventy-five
	// rounds jumps when the slow share crosses one half.
	m := res.Metrics
	m["setup_s"] = typical(setups)
	m["answers_per_s"] = float64(answers) / wall.Seconds()
	m["task_p50_ms"] = mean(assignMS) / float64(len(in.workers))
	m["visibility_p50_ms"] = mean(inferMS)
	m["restart_s"] = typical(restarts)
	m["cpu_s_per_kanswer"] = cpu.Seconds() / float64(answers) * 1000
	m["accuracy"] = final.Scores.Accuracy
	if traced {
		m["crowd.infer_p50_ms"] = median(inferMS)
		m["crowd.assign_p50_ms"] = median(assignMS)
		// One offline round of re-index + infer + assign + simulated answers.
		// A mean: RunLoop is one call from outside.
		m["crowd.round_ms"] = ms(wall) / float64(in.rounds+1)
		m["crowd.other_ms"] = m["crowd.round_ms"] - mean(inferMS) - mean(assignMS)
		m["synth.generate_ms"] = median(generates)
		m["data.load_file_ms"] = median(loadMS)
		m["data.new_index_ms"] = median(indexMS)
		m["engine.fit_ms"] = median(fitMS)
		if model, ok := out.Model.(*core.Model); ok {
			m["core.em_iterations"] = float64(model.Iterations)
		}
		m["eval.evaluate_ms"] = ms(rec.timed("eval.evaluate", 0, func() { eval.Evaluate(ds, idx, out.Truths) }))
		m["proc.alloc_mb_per_kanswer"], m["proc.gc_cycles"], m["proc.gc_pause_total_ms"] = memDelta(&memBefore, &memAfter, answers)
		m["gen.sessions"] = float64(in.rounds * len(in.workers))
		res.spans = rec.snapshot()
		m["gen.trace_overhead_share"] = spanOverhead(len(res.spans), cpu)
		res.Counts = map[string]float64{
			"rounds": float64(in.rounds), "answers_collected": float64(answers),
			"drive_wall_s": wall.Seconds(), "drive_cpu_s": cpu.Seconds(),
		}
	}
	m["peak_rss_mb"] = peakRSS
	return res, nil
}

// scoresOf is a trace's quality history without its timings.
func scoresOf(tr *crowd.Trace) []eval.Scores {
	out := make([]eval.Scores, len(tr.Rounds))
	for i, r := range tr.Rounds {
		out[i] = r.Scores
	}
	return out
}
