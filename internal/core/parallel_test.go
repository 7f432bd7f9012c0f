package core

import (
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/synth"
)

// TestParallelMatchesSequential: the fanned-out fit must be bit-for-bit
// identical to the sequential one for ANY goroutine count — object ranges
// are goroutine-exclusive and the per-claim class posteriors are reduced in
// index order, never in schedule order.
func TestParallelMatchesSequential(t *testing.T) {
	ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 3, Scale: 0.05})
	ds.Answers = append(ds.Answers,
		data.Answer{Object: ds.Objects()[0], Worker: "w1", Value: ds.Records[0].Value},
	)
	mSeq := run(data.NewIndex(ds), DefaultOptions(), 1)
	for _, goroutines := range []int{2, 4, 7} {
		idxPar := data.NewIndex(ds)
		mPar := run(idxPar, DefaultOptions(), goroutines)

		if mSeq.Iterations != mPar.Iterations {
			t.Fatalf("goroutines=%d: iteration counts differ: %d vs %d", goroutines, mSeq.Iterations, mPar.Iterations)
		}
		for oid, mu := range muRows(mSeq) {
			pmu := mPar.MuAt(oid)
			for i := range mu {
				if mu[i] != pmu[i] {
					t.Fatalf("goroutines=%d: mu differs on %s[%d]: %v vs %v",
						goroutines, idxPar.Objects[oid], i, mu[i], pmu[i])
				}
			}
		}
		for sid, phi := range mSeq.Phi {
			if phi != mPar.Phi[sid] {
				t.Fatalf("goroutines=%d: phi differs on %s", goroutines, idxPar.SourceNames[sid])
			}
		}
		for wid, psi := range mSeq.Psi {
			if psi != mPar.Psi[wid] {
				t.Fatalf("goroutines=%d: psi differs on %s", goroutines, idxPar.WorkerNames[wid])
			}
		}
	}
}

// TestRunFansOutAboveFloor: a fit on an index above parallelFloor takes the
// fan-out through public Run (on a machine with more than one core) and
// still equals the one-goroutine fit to the bit.
func TestRunFansOutAboveFloor(t *testing.T) {
	ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: 1})
	idx := data.NewIndex(ds)
	if size := idx.NumSourceClaims() + idx.NumWorkerClaims() + idx.NumObjects(); size < parallelFloor {
		t.Fatalf("fixture has %d claims + objects, below the floor %d", size, parallelFloor)
	}
	if got, want := fitGoroutines(idx), min(runtime.GOMAXPROCS(0), idx.NumObjects()); got != want {
		t.Fatalf("fitGoroutines = %d, want %d", got, want)
	}
	if got, want := fitHash(Run(idx, DefaultOptions())), fitHash(run(data.NewIndex(ds), DefaultOptions(), 1)); got != want {
		t.Fatalf("Run hash %#x, one-goroutine hash %#x", got, want)
	}
}

// TestGoroutinesFor pins the goroutine-count rule: one goroutine below
// parallelFloor claims + objects, otherwise one per core, capped at the
// object count.
func TestGoroutinesFor(t *testing.T) {
	for _, c := range []struct{ size, objects, procs, want int }{
		{0, 0, 2, 1},
		{parallelFloor - 1, 5000, 2, 1},
		{parallelFloor - 1, 5000, 64, 1},
		{parallelFloor, 5000, 1, 1},
		{parallelFloor, 5000, 2, 2},
		{parallelFloor, 5000, 64, 64},
		{parallelFloor, 3, 64, 3},
		{40000, 12000, 2, 2},
	} {
		if got := goroutinesFor(c.size, c.objects, c.procs); got != c.want {
			t.Errorf("goroutinesFor(%d, %d, %d) = %d, want %d", c.size, c.objects, c.procs, got, c.want)
		}
	}
}

// TestCutRanges: the ranges are contiguous, non-empty and cover every
// object, and a heavy object does not leave a later range empty.
func TestCutRanges(t *testing.T) {
	idx := data.NewIndex(wideDataset())
	for n := 1; n <= idx.NumObjects(); n++ {
		cuts := cutRanges(idx, n)
		if len(cuts) != n+1 || cuts[0] != 0 || cuts[n] != idx.NumObjects() {
			t.Fatalf("n=%d: cuts %v do not span [0, %d]", n, cuts, idx.NumObjects())
		}
		for g := 0; g < n; g++ {
			if cuts[g] >= cuts[g+1] {
				t.Fatalf("n=%d: range %d of %v is empty", n, g, cuts)
			}
		}
	}
}

func TestParallelWithMoreWorkersThanObjects(t *testing.T) {
	ds := &data.Dataset{
		Name: "tiny",
		Records: []data.Record{
			{Object: "o", Source: "s1", Value: "a"},
			{Object: "o", Source: "s2", Value: "b"},
		},
		Truth: map[string]string{},
	}
	m := run(data.NewIndex(ds), DefaultOptions(), 64)
	if len(m.Truths()) != 1 {
		t.Fatal("tiny parallel run broken")
	}
}
