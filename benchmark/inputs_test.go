package main

import (
	"bytes"
	"reflect"
	"testing"
)

// generated is everything the seed decides, in comparable form.
type generated struct {
	datasets [][]byte
	workers  any
	slots    []slot
	grow     [][]growOp
	budget   int
}

func generateFor(t *testing.T, workload string, seed int64) generated {
	t.Helper()
	in, err := generate(params{workload: workload, seed: seed, seconds: 1, scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	g := generated{workers: in.workers, slots: in.slots, budget: in.answerBudget}
	for _, c := range in.campaigns {
		g.datasets = append(g.datasets, c.create.Dataset)
		g.grow = append(g.grow, c.grow)
	}
	return g
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range []string{"ingest_refit", "ingest_publish", "mixed_tenants"} {
		a, b, other := generateFor(t, w, 7), generateFor(t, w, 7), generateFor(t, w, 8)
		for i := range a.datasets {
			if !bytes.Equal(a.datasets[i], b.datasets[i]) {
				t.Errorf("%s: same seed, dataset %d JSON differs", w, i)
			}
			if bytes.Equal(a.datasets[i], other.datasets[i]) {
				t.Errorf("%s: another seed gave the same dataset %d", w, i)
			}
			if bytes.Contains(a.datasets[i], []byte(`"truth": {"`)) {
				t.Errorf("%s: the uploaded dataset %d carries gold", w, i)
			}
		}
		if !reflect.DeepEqual(a.workers, b.workers) || !reflect.DeepEqual(a.slots, b.slots) || !reflect.DeepEqual(a.grow, b.grow) {
			t.Errorf("%s: same seed, worker pool, schedule or growth ops differ", w)
		}
		if reflect.DeepEqual(a.workers, other.workers) {
			t.Errorf("%s: another seed gave the same worker pool", w)
		}
		if a.budget != b.budget {
			t.Errorf("%s: same seed, answer budget differs", w)
		}
	}
	// The growth ops are the seeded part of a schedule.
	a, other := generateFor(t, "mixed_tenants", 7), generateFor(t, "mixed_tenants", 8)
	if len(a.grow[0]) == 0 {
		t.Fatal("mixed_tenants schedule has no growth op at 1 s")
	}
	if reflect.DeepEqual(a.grow, other.grow) {
		t.Error("another seed gave the same growth ops")
	}
	ba, bb := generateBatch(params{seed: 7, seconds: 1, scale: 0.05}), generateBatch(params{seed: 7, seconds: 1, scale: 0.05})
	if !reflect.DeepEqual(ba.ds.Records, bb.ds.Records) || !reflect.DeepEqual(ba.workers, bb.workers) {
		t.Error("crowd_batch: same seed, inputs differ")
	}
}

func TestMixedScheduleShape(t *testing.T) {
	in, err := generate(params{workload: "mixed_tenants", seed: 3, seconds: 10, scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.slots) != 10*mixedSlotsPerSecond {
		t.Fatalf("%d slots, want %d", len(in.slots), 10*mixedSlotsPerSecond)
	}
	counts := map[[2]int]int{}
	for i, s := range in.slots {
		if s.Camp != i%2 {
			t.Fatalf("slot %d is on campaign %d: slots must alternate campaigns", i, s.Camp)
		}
		if i > 0 && s.Due <= in.slots[i-1].Due {
			t.Fatalf("slot %d is not due after slot %d", i, i-1)
		}
		counts[[2]int{s.Camp, int(s.Kind)}]++
	}
	perCamp := len(in.slots) / 2
	if got, want := counts[[2]int{0, int(slotGrow)}], (perCamp-growFirst)/growEvery+1; got != want {
		t.Errorf("%d growth ops on mt-cat, want %d", got, want)
	}
	if counts[[2]int{1, int(slotGrow)}] != 0 {
		t.Error("the numeric campaign must not grow")
	}
	if got, want := counts[[2]int{1, int(slotRead)}], perCamp/readEvery; got != want {
		t.Errorf("%d reads on mt-num, want %d", got, want)
	}
	if len(in.campaigns[0].grow) != counts[[2]int{0, int(slotGrow)}] {
		t.Error("growth ops and growth slots disagree")
	}
	for _, op := range in.campaigns[0].grow {
		if len(op.Candidates) != 3 || len(op.Records) != 2 {
			t.Fatalf("growth op %s: %d candidates, %d records; want 3 and 2", op.Object, len(op.Candidates), len(op.Records))
		}
		for _, v := range op.Candidates {
			if !in.campaigns[0].gold.H.Contains(v) {
				t.Fatalf("growth op %s: candidate %q is not a hierarchy node", op.Object, v)
			}
		}
	}
}
