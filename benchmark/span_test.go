package main

import (
	"testing"
	"time"
)

func at(msec int) time.Duration { return time.Duration(msec) * time.Millisecond }

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "restart", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "load", Start: at(0), End: at(30)},
		{ID: 3, Parent: 1, Name: "fit", Start: at(40), End: at(90)},
		{ID: 4, Parent: 3, Name: "estep", Start: at(50), End: at(60)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: at(20), 2: at(30), 3: at(40), 4: at(10)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnceAndClipsThem(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "session", Start: at(10), End: at(50)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "b", Start: at(20), End: at(40)}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: at(45), End: at(70)}, // runs past the parent
		{ID: 5, Parent: 1, Name: "d", Start: at(0), End: at(5)},   // entirely outside
		{ID: 6, Parent: 9, Name: "orphan", Start: at(0), End: at(5)},
	}
	self := selfTimes(spans)
	// Covered: [10,40] and [45,50] = 35 of 40.
	if self[1] != at(5) {
		t.Errorf("self time of the parent = %v, want 5ms", self[1])
	}
	if self[6] != at(5) {
		t.Errorf("self time of an orphan = %v, want its duration", self[6])
	}
}

func TestBudgetRowsPlusUnexplainedEqualTheTotal(t *testing.T) {
	rec := newRecorder("t")
	base := rec.epoch
	for i := 0; i < 3; i++ {
		off := base.Add(time.Duration(i) * time.Second)
		root := rec.open("cycle", 0, off)
		rec.add("fold", root, off.Add(at(1)), off.Add(at(4)))
		seal := rec.add("seal", root, off.Add(at(4)), off.Add(at(9)))
		rec.add("copy", seal, off.Add(at(5)), off.Add(at(7)))
		rec.close(root, off.Add(at(10)))
	}
	rec.add("elsewhere", 0, base, base.Add(at(500))) // not under a cycle
	rows, unexplained, total, roots := budget(rec.snapshot(), "cycle")
	if roots != 3 || total != at(30) || unexplained != at(6) {
		t.Fatalf("roots %d total %v unexplained %v; want 3, 30ms, 6ms", roots, total, unexplained)
	}
	sum := unexplained
	got := map[string]time.Duration{}
	for _, r := range rows {
		sum += r.Self
		got[r.Name] = r.Self
	}
	if sum != total {
		t.Errorf("rows + unexplained = %v, want the total %v", sum, total)
	}
	if got["fold"] != at(9) || got["seal"] != at(9) || got["copy"] != at(6) || len(got) != 3 {
		t.Errorf("rows = %v", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	id := rec.open("x", 0, time.Now())
	rec.close(id, time.Now())
	rec.add("y", id, time.Now(), time.Now())
	ran := false
	rec.timed("z", 0, func() { ran = true })
	if !ran || len(rec.snapshot()) != 0 {
		t.Error("a nil recorder must run the function and record nothing")
	}
}
