package assign

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cow"
	"repro/internal/data"
	"repro/internal/infer"
)

// The Plan.Advance equivalence suite: an advanced plan must be exactly what
// NewPlan would build for the same (idx, res) — same values (1e-9, bit-
// identical in practice), same ranking orders, same assignments from every
// assigner — across the cases the server pipeline produces: incremental
// answer folds, open-world index growth, and the fallback conditions.

// foldAnswers simulates one incremental publish: clone the fixture's model,
// apply nAns answers round-robin over the first objects (the pipeline's
// ApplyAnswers path), and return the new result — the folded model packaged
// as TDH.Infer packages a fit, with fresh trust maps — plus touched object
// IDs.
func foldAnswers(f *fixture, nAns int) (*infer.Result, []int) {
	m := f.m.Clone()
	var touched []int
	for i := 0; i < nAns; i++ {
		oid := (i * 7) % len(f.idx.Objects)
		wid, ok := f.idx.WorkerID(f.workers[i%len(f.workers)])
		if !ok {
			wid = -1 // a worker the index has never seen
		}
		m.ApplyAnswerAt(oid, wid, i%len(f.idx.ViewAt(oid).CI.Values))
		touched = append(touched, oid)
	}
	return infer.ViewOf(m, nil), touched
}

func floatsClose(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("%s[%d]: %g != %g", tag, i, got[i], want[i])
		}
	}
}

// defaultScores is the plan's cold-worker score cache, nil when the plan
// holds none.
func (p *Plan) defaultScores() *cow.Vec[float64] {
	if p.reads&coldCache == 0 || p.M == nil {
		return nil
	}
	return &p.eaiDefault
}

// comparePlans pins an advanced plan to its from-scratch twin, part by part
// over the parts both hold; the confidence rows and the model always.
func comparePlans(t *testing.T, tag string, got, want *Plan) {
	t.Helper()
	both := got.reads & want.reads
	if both&entRanking != 0 && !reflect.DeepEqual(got.entRank.AppendTo(nil), want.entRank.AppendTo(nil)) {
		t.Fatalf("%s: entRank differs", tag)
	}
	if both&maxConf != 0 {
		floatsClose(t, tag+": MaxMu", got.maxMu.AppendTo(nil), want.maxMu.AppendTo(nil))
	}
	if both&entropies != 0 {
		floatsClose(t, tag+": Ent", got.ent.AppendTo(nil), want.ent.AppendTo(nil))
	}
	for oid := range want.Idx.Objects {
		if !reflect.DeepEqual(got.Row(oid), want.Row(oid)) {
			t.Fatalf("%s: Mu rows differ", tag)
		}
	}
	if (got.M == nil) != (want.M == nil) {
		t.Fatalf("%s: model presence differs", tag)
	}
	if got.M == nil {
		return
	}
	if both&bounds != 0 {
		floatsClose(t, tag+": ueai", got.ueai.AppendTo(nil), want.ueai.AppendTo(nil))
		gotOrder, wantOrder := got.ueaiRank.AppendTo(nil), want.ueaiRank.AppendTo(nil)
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("%s: ueaiRank length %d != %d", tag, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i].ID != wantOrder[i].ID {
				t.Fatalf("%s: ueaiRank[%d] oid %d != %d (scan order diverged)",
					tag, i, gotOrder[i].ID, wantOrder[i].ID)
			}
			if math.Abs(gotOrder[i].Key-wantOrder[i].Key) > 1e-9 {
				t.Fatalf("%s: ueaiRank[%d] bound %g != %g", tag, i, gotOrder[i].Key, wantOrder[i].Key)
			}
		}
	}
	if both&coldCache == 0 {
		return
	}
	if got.Settled() != want.Settled() {
		t.Fatalf("%s: Settled %d != %d", tag, got.Settled(), want.Settled())
	}
	if got.defaultPsi != want.defaultPsi {
		t.Fatalf("%s: defaultPsi differs", tag)
	}
	floatsClose(t, tag+": eaiDefault", got.defaultScores().AppendTo(nil), want.defaultScores().AppendTo(nil))
	gotCold, wantCold := got.coldRank.AppendTo(nil), want.coldRank.AppendTo(nil)
	if len(gotCold) != len(wantCold) {
		t.Fatalf("%s: coldRank length %d != %d", tag, len(gotCold), len(wantCold))
	}
	for i := range gotCold {
		if gotCold[i].ID != wantCold[i].ID || math.Abs(gotCold[i].Key-wantCold[i].Key) > 1e-9 {
			t.Fatalf("%s: coldRank[%d] %+v != %+v", tag, i, gotCold[i], wantCold[i])
		}
	}
}

// compareAssignments runs EAI, ME and QASCA against both plans and requires
// identical output — the behavioral half of the equivalence bar.
func compareAssignments(t *testing.T, tag string, f *fixture, idx *data.Index, res *infer.Result, got, want *Plan) {
	t.Helper()
	assigners := []Assigner{EAI{}, ME{}, QASCA{}}
	for _, asg := range assigners {
		mk := func(p *Plan) map[string][]string {
			return asg.Assign(&Context{
				Idx: idx, Res: res, Plan: p, Workers: f.workers, K: 3, Seed: 1234,
			})
		}
		a, b := mk(got), mk(want)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: %s assignments differ:\n advanced: %v\n fresh:    %v", tag, asg.Name(), a, b)
		}
	}
}

// TestPlanAdvanceMatchesNewPlanAfterAnswers: advancing the previous
// snapshot's plan around an incremental answer fold reproduces NewPlan on
// both seed datasets. 200 answers move objects into and out of the no-flip
// certificate's settled set, which Advance counts by its touched objects.
func TestPlanAdvanceMatchesNewPlanAfterAnswers(t *testing.T) {
	for fi, f := range planFixtures(t) {
		for _, nAns := range []int{1, 9, 200} {
			tag := fmt.Sprintf("fixture %d, %d answers", fi, nAns)
			prev := NewPlan(f.idx, f.res)
			res2, touched := foldAnswers(f, nAns)
			want := NewPlan(f.idx, res2)
			got, ok := prev.Advance(f.idx, res2, touched)
			if !ok {
				t.Fatalf("%s: Advance fell back to a full build", tag)
			}
			comparePlans(t, tag, got, want)
			compareAssignments(t, tag, f, f.idx, res2, got, want)
		}
	}
}

// TestPlanAdvanceUnwarmedPrevious: advancing a plan straight from NewPlan,
// with no call on it in between, matches. Every constructor builds the
// cold-worker cache eagerly, so no plan is left to warm: this is the
// four-answer fold on fixture 5.
func TestPlanAdvanceUnwarmedPrevious(t *testing.T) {
	f := newFixture(t, 5, true)
	prev := NewPlan(f.idx, f.res)
	res2, touched := foldAnswers(f, 4)
	want := NewPlan(f.idx, res2)
	got, ok := prev.Advance(f.idx, res2, touched)
	if !ok {
		t.Fatal("Advance fell back to a full build")
	}
	comparePlans(t, "unwarmed", got, want)
}

// TestPlanAdvanceAfterGrowth: the open-world publish — Extend the index
// with a new object and a new record, Grow the model, then advance the
// plan across the size change.
func TestPlanAdvanceAfterGrowth(t *testing.T) {
	for fi, f := range planFixtures(t) {
		tag := fmt.Sprintf("fixture %d", fi)
		prev := NewPlan(f.idx, f.res)

		work := f.ds.Clone()
		donorVals := f.idx.View(f.idx.Objects[0]).CI.Values
		mu := data.Mutation{
			Candidates: map[string][]string{"zzz-grown-object": append([]string(nil), donorVals...)},
			Records:    []data.Record{{Object: f.idx.Objects[1], Source: "grown-src", Value: donorVals[0]}},
		}
		work.Candidates = map[string][]string{"zzz-grown-object": append([]string(nil), donorVals...)}
		work.Records = append(work.Records, mu.Records...)
		idx2, touched := f.idx.Extend(work, mu)
		m2 := f.m.Grow(idx2, touched)
		res2 := infer.ViewOf(m2, nil)

		want := NewPlan(idx2, res2)
		got, ok := prev.Advance(idx2, res2, touched)
		if !ok {
			t.Fatalf("%s: Advance fell back to a full build", tag)
		}
		comparePlans(t, tag, got, want)
		compareAssignments(t, tag, f, idx2, res2, got, want)
	}
}

// TestPlanAdvanceFallsBack: the detectable precondition violations — the
// cases where entries cannot be carried over — must fall back to a full
// build and say so. (A foreign index with the same size AND the same
// object names is indistinguishable by construction; that case is what the
// touched contract covers.)
func TestPlanAdvanceFallsBack(t *testing.T) {
	f := newFixture(t, 1, false)
	other := newBirthPlacesFixture(t, 1, false) // different object names

	if len(f.idx.Objects) == len(other.idx.Objects) {
		t.Fatal("fixtures must differ in size for the shrink case")
	}
	big, small := f, other
	if len(big.idx.Objects) < len(small.idx.Objects) {
		big, small = small, big
	}
	if _, ok := NewPlan(big.idx, big.res).Advance(small.idx, small.res, nil); ok {
		t.Fatal("Advance onto a smaller index must fall back")
	}

	prev := NewPlan(small.idx, small.res)
	got, ok := prev.Advance(big.idx, big.res, nil)
	if ok {
		t.Fatal("Advance onto an index with foreign object names must fall back")
	}
	want := NewPlan(big.idx, big.res)
	comparePlans(t, "foreign-names fallback", got, want)
	compareAssignments(t, "foreign-names fallback", big, big.idx, big.res, got, want)

	// Model detached: the result lost its TDH model (custom inferencer swap
	// to a baseline, whose rows are a Table).
	noModel := infer.Vote{}.Infer(f.idx)
	got, ok = NewPlan(f.idx, f.res).Advance(f.idx, noModel, nil)
	if ok {
		t.Fatal("Advance across a model detach must fall back")
	}
	comparePlans(t, "detached-model fallback", got, NewPlan(f.idx, noModel))
}

// TestPlanFallbackCounter: Context.PlanFallbacks counts stale attached
// plans — and only those.
func TestPlanFallbackCounter(t *testing.T) {
	f := newFixture(t, 3, true)
	plan := NewPlan(f.idx, f.res)
	var n atomic.Int64

	ctx := f.ctx(2)
	ctx.Plan, ctx.PlanFallbacks = plan, &n
	EAI{}.Assign(ctx)
	if n.Load() != 0 {
		t.Fatalf("matching plan counted as fallback: %d", n.Load())
	}

	res2, _ := foldAnswers(f, 1)
	ctx = f.ctx(2)
	ctx.Res, ctx.Plan, ctx.PlanFallbacks = res2, plan, &n // plan is stale for res2
	EAI{}.Assign(ctx)
	if n.Load() != 1 {
		t.Fatalf("stale plan fallback count = %d, want 1", n.Load())
	}

	ctx = f.ctx(2)
	ctx.Res, ctx.PlanFallbacks = res2, &n // no plan attached: not a regression
	EAI{}.Assign(ctx)
	if n.Load() != 1 {
		t.Fatalf("absent plan counted as fallback: %d", n.Load())
	}
}

// TestPlanOnViewMatchesCopy: what the server publishes between refits is a
// VIEW over the sealed model that carries the previous result's trust maps
// (infer.ViewOf(m, prev)), not the fit-shaped result with fresh ones the
// tests above advance over. Plans built or advanced over the view equal the
// ones over the fit-shaped result of the same model — values, scan orders,
// assignments, QASCA's estimate — and read the sealed model's own rows, so a
// plan never pins rows of a model it was advanced away from.
func TestPlanOnViewMatchesCopy(t *testing.T) {
	for fi, f := range planFixtures(t) {
		tag := fmt.Sprintf("fixture %d", fi)
		prev := NewPlan(f.idx, f.res)
		copied, touched := foldAnswers(f, 9)
		m := copied.Model.(*core.Model)
		view := infer.ViewOf(m, f.res)
		if view.Rows != m || reflect.ValueOf(view.SourceTrust).Pointer() != reflect.ValueOf(f.res.SourceTrust).Pointer() {
			t.Fatalf("%s: the view copied the model or rebuilt the trust maps", tag)
		}
		want := NewPlan(f.idx, copied)
		built := NewPlan(f.idx, view)
		advanced, ok := prev.Advance(f.idx, view, touched)
		if !ok {
			t.Fatalf("%s: Advance over a view fell back to a full build", tag)
		}
		for name, got := range map[string]*Plan{"built": built, "advanced": advanced} {
			comparePlans(t, tag+" "+name, got, want)
			for oid := range f.idx.Objects {
				if &got.Row(oid)[0] != &m.MuAt(oid)[0] {
					t.Fatalf("%s %s: the plan holds a copy of object %d's row instead of reading the sealed model's", tag, name, oid)
				}
			}
			for _, asg := range []Assigner{EAI{}, ME{}, QASCA{}} {
				a := asg.Assign(&Context{Idx: f.idx, Res: view, Plan: got, Workers: f.workers, K: 3, Seed: 1234})
				b := asg.Assign(&Context{Idx: f.idx, Res: copied, Plan: want, Workers: f.workers, K: 3, Seed: 1234})
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s %s: %s assigns %v over the view, %v over the copy", tag, name, asg.Name(), a, b)
				}
			}
		}
		issued := EAI{}.Assign(&Context{Idx: f.idx, Res: copied, Workers: f.workers, K: 3})
		overView := QASCA{}.EstimateImprovement(&Context{Idx: f.idx, Res: view, Seed: 5}, issued)
		overCopy := QASCA{}.EstimateImprovement(&Context{Idx: f.idx, Res: copied, Seed: 5}, issued)
		if overView != overCopy || overView == 0 {
			t.Fatalf("%s: QASCA estimates %v over the view, %v over the copy", tag, overView, overCopy)
		}
	}
}
