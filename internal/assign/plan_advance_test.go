package assign

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
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

// settledByCertificate counts the objects core.Model.SettledAt settles,
// O(Σ|Vo|): the reference for Plan.Settled, which reads them off the
// cold-worker ranking.
func settledByCertificate(m *core.Model) int {
	n := 0
	for oid := range m.NumObjects() {
		if m.SettledAt(oid) {
			n++
		}
	}
	return n
}

// coldScores is the plan's cold-worker score per object, in the served unit
// EAI: the keys of its cold-worker ranking (|O|·EAI) laid out by object ID
// and divided by |O|, a settled object's −1 read as its score 0.
func (p *Plan) coldScores() []float64 {
	scores := make([]float64, p.Idx.NumObjects())
	for _, en := range p.coldRank.AppendTo(nil) {
		scores[en.ID] = max(en.Key, 0) / float64(len(scores))
	}
	return scores
}

// comparePlans pins an advanced plan to its from-scratch twin, part by part
// over the parts both hold; the confidence rows and the model always.
func comparePlans(t *testing.T, tag string, got, want *Plan) {
	t.Helper()
	both := got.reads & want.reads
	if both&entRanking != 0 && !reflect.DeepEqual(got.entRank.AppendTo(nil), want.entRank.AppendTo(nil)) {
		t.Fatalf("%s: entRank differs", tag)
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
	for name, p := range map[string]*Plan{"advanced": got, "built": want} {
		if s, ref := p.Settled(), settledByCertificate(p.M); s != ref {
			t.Fatalf("%s: the %s plan's Settled is %d, the certificate settles %d objects", tag, name, s, ref)
		}
	}
	if got.defaultPsi != want.defaultPsi {
		t.Fatalf("%s: defaultPsi differs", tag)
	}
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
// snapshot's plan — straight from NewPlan, with no call on it in between —
// around an incremental answer fold reproduces NewPlan on both seed
// datasets. 200 answers move objects into and out of the no-flip
// certificate's settled set, which Settled reads off the advanced ranking.
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

// TestPlanAdvanceUnwarmedPrevious: advancing a plan on which nothing was
// called, not even the no-op Prewarm, still matches NewPlan: the cold-worker
// cache it carries over was built with the plan, not on first use.
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
	compareAssignments(t, "unwarmed", f, f.idx, res2, got, want)
}

// TestPlanAdvanceAfterGrowth: the open-world publish chain. Extend the
// index by three new objects and a new record on an old one in one cycle
// (Grow the model), fold answers on new and old objects, then grow by one
// more object: after every step the plans an EAI, an ME and an all-parts
// campaign advance hold, bit for bit, the rankings a build of the same
// parts gives for that snapshot (PlanFor, NewPlan), and assign as it does.
func TestPlanAdvanceAfterGrowth(t *testing.T) {
	for fi, f := range planFixtures(t) {
		work, idx, m := f.ds.Clone(), f.idx, f.m
		if work.Candidates == nil {
			work.Candidates = map[string][]string{}
		}
		donor := idx.View(idx.Objects[0]).CI.Values
		grow := func(objects ...string) []int {
			mu := data.Mutation{
				Candidates: map[string][]string{},
				Records:    []data.Record{{Object: idx.Objects[1], Source: "src-" + objects[0], Value: donor[0]}},
			}
			for _, o := range objects {
				mu.Candidates[o] = slices.Clone(donor)
				work.Candidates[o] = slices.Clone(donor)
			}
			work.Records = append(work.Records, mu.Records...)
			var touched []int
			idx, touched = idx.Extend(work, mu)
			m = m.Grow(idx, touched)
			return touched
		}
		fold := func(nAns int) []int {
			m = m.Clone()
			var touched []int
			for i := range nAns {
				oid := idx.NumObjects() - 1 - (i*5)%idx.NumObjects() // the new objects first
				wid, ok := idx.WorkerID(f.workers[i%len(f.workers)])
				if !ok {
					wid = -1
				}
				m.ApplyAnswerAt(oid, wid, i%len(idx.ViewAt(oid).CI.Values))
				touched = append(touched, oid)
			}
			return touched
		}
		builds := map[string]func(*data.Index, *infer.Result) *Plan{
			"EAI": func(idx *data.Index, res *infer.Result) *Plan { return PlanFor(EAI{}, idx, res) },
			"ME":  func(idx *data.Index, res *infer.Result) *Plan { return PlanFor(ME{}, idx, res) },
			"all": NewPlan,
		}
		plans := map[string]*Plan{}
		for name, build := range builds {
			plans[name] = build(idx, f.res)
		}
		for _, st := range []struct {
			name string
			do   func() []int
		}{
			{"grow by 3", func() []int { return grow("zzz-grown-a", "zzz-grown-b", "zzz-grown-c") }},
			{"fold 12", func() []int { return fold(12) }},
			{"grow by 1", func() []int { return grow("zzz-grown-d") }},
		} {
			nPrev := idx.NumObjects()
			touched := st.do()
			res := infer.ViewOf(m, nil)
			for name, build := range builds {
				tag := fmt.Sprintf("fixture %d, %s plan, %s (%d → %d objects)", fi, name, st.name, nPrev, idx.NumObjects())
				got, ok := plans[name].Advance(idx, res, touched)
				if !ok {
					t.Fatalf("%s: Advance fell back to a full build", tag)
				}
				want := build(idx, res)
				if !reflect.DeepEqual(got.AppendParts(nil), want.AppendParts(nil)) {
					t.Fatalf("%s: the advanced rankings differ from the built ones", tag)
				}
				comparePlans(t, tag, got, want)
				compareAssignments(t, tag, f, idx, res, got, want)
				plans[name] = got
			}
		}
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

	// Prior-mean ψ moved: a model under another Opt.Beta gives every object
	// another cold-worker score.
	reBeta := f.m.Clone()
	reBeta.Opt.Beta[0] *= 2
	betaRes := infer.ViewOf(reBeta, nil)
	got, ok = NewPlan(f.idx, f.res).Advance(f.idx, betaRes, nil)
	if ok {
		t.Fatal("Advance across a change of the prior-mean ψ must fall back")
	}
	comparePlans(t, "prior-mean ψ fallback", got, NewPlan(f.idx, betaRes))
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
