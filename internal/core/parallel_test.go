package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/synth"
)

// TestParallelMatchesSequential: the parallel E-step must be bit-for-bit
// identical to the sequential one for ANY worker count — object ranges are
// goroutine-exclusive and the per-claim class posteriors are reduced in
// index order, never in schedule order.
func TestParallelMatchesSequential(t *testing.T) {
	ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 3, Scale: 0.05})
	ds.Answers = append(ds.Answers,
		data.Answer{Object: ds.Objects()[0], Worker: "w1", Value: ds.Records[0].Value},
	)
	mSeq := Run(data.NewIndex(ds), DefaultOptions())
	for _, workers := range []int{2, 4, 7} {
		parOpt := DefaultOptions()
		parOpt.Workers = workers
		idxPar := data.NewIndex(ds)
		mPar := Run(idxPar, parOpt)

		if mSeq.Iterations != mPar.Iterations {
			t.Fatalf("workers=%d: iteration counts differ: %d vs %d", workers, mSeq.Iterations, mPar.Iterations)
		}
		for oid, mu := range muRows(mSeq) {
			pmu := mPar.MuAt(oid)
			for i := range mu {
				if mu[i] != pmu[i] {
					t.Fatalf("workers=%d: mu differs on %s[%d]: %v vs %v",
						workers, idxPar.Objects[oid], i, mu[i], pmu[i])
				}
			}
		}
		for sid, phi := range mSeq.Phi {
			if phi != mPar.Phi[sid] {
				t.Fatalf("workers=%d: phi differs on %s", workers, idxPar.SourceNames[sid])
			}
		}
		for wid, psi := range mSeq.Psi {
			if psi != mPar.Psi[wid] {
				t.Fatalf("workers=%d: psi differs on %s", workers, idxPar.WorkerNames[wid])
			}
		}
	}
}

func TestEffectiveWorkers(t *testing.T) {
	cases := []struct {
		in     int
		sameAs int // -1 means "GOMAXPROCS, just check > 0"
	}{
		{0, 1}, {1, 1}, {4, 4}, {-1, -1},
	}
	for _, c := range cases {
		got := Options{Workers: c.in}.effectiveWorkers()
		if c.sameAs == -1 {
			if got < 1 {
				t.Fatalf("Workers=-1 => %d", got)
			}
		} else if got != c.sameAs {
			t.Fatalf("Workers=%d => %d, want %d", c.in, got, c.sameAs)
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
	opt := DefaultOptions()
	opt.Workers = 64
	m := Run(data.NewIndex(ds), opt)
	if len(m.Truths()) != 1 {
		t.Fatal("tiny parallel run broken")
	}
}
