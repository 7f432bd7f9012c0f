package assign

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cow"
	"repro/internal/data"
	"repro/internal/infer"
)

// held is the part set a plan actually carries, read off its fields rather
// than its reads tag.
func held(p *Plan) parts {
	var h parts
	ranked := func(r cow.Ranking) bool { return len(r.Chunks()) > 0 }
	if ranked(p.entRank) {
		h |= entRanking
	}
	if ranked(p.ueaiRank) {
		h |= bounds
	}
	if ranked(p.coldRank) {
		h |= coldCache
	}
	return h
}

// TestPlanForHoldsOnlyItsParts: the plan a campaign publishes holds what its
// assigner reads and nothing else — ME on TDH gets no cold cache and no UEAI
// ranking, an EAI plan no entropy ranking, MB and QASCA no ranking at all —
// a call by another assigner that reads a ranking the plan lacks builds its
// own (counted as a fallback) and assigns as with no plan, MB and QASCA
// assign off any plan of the snapshot without a fallback, and an Advance
// that falls back rebuilds the same parts.
func TestPlanForHoldsOnlyItsParts(t *testing.T) {
	f := newFixture(t, 3, true)
	crh := infer.CRH{}.Infer(f.idx)
	for _, c := range []struct {
		name string
		asg  Assigner
		res  *infer.Result
		want parts
	}{
		{"TDH+EAI", EAI{}, f.res, eaiServed},
		{"TDH+ME", ME{}, f.res, entRanking},
		{"TDH+MB", MB{}, f.res, 0},
		{"TDH+QASCA", QASCA{}, f.res, 0},
		{"CRH+ME", ME{}, crh, entRanking},
	} {
		p := PlanFor(c.asg, f.idx, c.res)
		if p.reads != c.want || held(p) != c.want {
			t.Errorf("%s: plan reads %03b and holds %03b, want %03b", c.name, p.reads, held(p), c.want)
		}
	}
	if all := held(NewPlan(f.idx, f.res)); all != allParts {
		t.Errorf("NewPlan holds %03b, want every part %03b", all, allParts)
	}

	eaiPlan := PlanFor(EAI{}, f.idx, f.res)
	var n atomic.Int64
	ctx := f.ctx(2)
	ctx.Plan, ctx.PlanFallbacks = eaiPlan, &n
	got := ME{}.Assign(ctx)
	if n.Load() != 1 {
		t.Fatalf("ME on an EAI plan counted %d fallbacks, want 1", n.Load())
	}
	if want := (ME{}).Assign(f.ctx(2)); !reflect.DeepEqual(got, want) {
		t.Fatalf("ME on an EAI plan assigns %v, with no plan %v", got, want)
	}
	if held(eaiPlan) != eaiServed {
		t.Fatalf("the ME call wrote parts into the attached EAI plan: %03b", held(eaiPlan))
	}
	EAI{}.Assign(ctx)
	for _, asg := range []Assigner{MB{}, QASCA{}} {
		if got, want := asg.Assign(ctx), asg.Assign(f.ctx(2)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on an EAI plan assigns %v, with no plan %v", asg.Name(), got, want)
		}
	}
	if n.Load() != 1 {
		t.Fatalf("EAI, MB or QASCA on the EAI plan counted a fallback: %d", n.Load()-1)
	}

	other := newBirthPlacesFixture(t, 3, true) // different object names
	small, big := f, other
	if small.idx.NumObjects() > big.idx.NumObjects() {
		small, big = big, small
	}
	fallback, ok := PlanFor(EAI{}, small.idx, small.res).Advance(big.idx, big.res, nil)
	if ok {
		t.Fatal("Advance onto an index with foreign object names must fall back")
	}
	if fallback.reads != eaiServed || held(fallback) != eaiServed {
		t.Fatalf("an Advance fallback from an EAI plan reads %03b and holds %03b, want %03b", fallback.reads, held(fallback), eaiServed)
	}
	comparePlans(t, "EAI fallback", fallback, PlanFor(EAI{}, big.idx, big.res))
}

// TestPlanAdvanceMatchesPlanFor: for each assigner, advancing the plan a
// campaign publishes around an answer fold and across index growth
// reproduces the plan PlanFor builds for the new snapshot — the same parts,
// the same values and orders, the same assignment by that assigner.
func TestPlanAdvanceMatchesPlanFor(t *testing.T) {
	for fi, f := range planFixtures(t) {
		for _, asg := range []Assigner{EAI{}, ME{}, MB{}, QASCA{}} {
			tag := fmt.Sprintf("fixture %d, %s", fi, asg.Name())
			prev := PlanFor(asg, f.idx, f.res)

			res2, touched := foldAnswers(f, 9)
			got, ok := prev.Advance(f.idx, res2, touched)
			if !ok {
				t.Fatalf("%s: Advance over a fold fell back to a full build", tag)
			}
			matchPlanFor(t, tag+", fold", asg, f, f.idx, res2, got)

			work := f.ds.Clone()
			donorVals := f.idx.View(f.idx.Objects[0]).CI.Values
			mu := data.Mutation{
				Candidates: map[string][]string{"zzz-grown-object": append([]string(nil), donorVals...)},
				Records:    []data.Record{{Object: f.idx.Objects[1], Source: "grown-src", Value: donorVals[0]}},
			}
			work.Candidates = map[string][]string{"zzz-grown-object": append([]string(nil), donorVals...)}
			work.Records = append(work.Records, mu.Records...)
			idx3, grown := f.idx.Extend(work, mu)
			res3 := infer.ViewOf(res2.Model.(*core.Model).Grow(idx3, grown), nil)
			got, ok = got.Advance(idx3, res3, grown)
			if !ok {
				t.Fatalf("%s: Advance across growth fell back to a full build", tag)
			}
			matchPlanFor(t, tag+", growth", asg, f, idx3, res3, got)
		}
	}
}

// matchPlanFor pins got, a plan advanced to (idx, res), to the plan PlanFor
// builds for asg there: parts, values, orders and asg's assignment.
func matchPlanFor(t *testing.T, tag string, asg Assigner, f *fixture, idx *data.Index, res *infer.Result, got *Plan) {
	t.Helper()
	want := PlanFor(asg, idx, res)
	if got.reads != want.reads || held(got) != held(want) {
		t.Fatalf("%s: advanced plan reads %03b and holds %03b, PlanFor's %03b and %03b", tag, got.reads, held(got), want.reads, held(want))
	}
	comparePlans(t, tag, got, want)
	var n atomic.Int64
	mk := func(p *Plan) map[string][]string {
		return asg.Assign(&Context{Idx: idx, Res: res, Plan: p, PlanFallbacks: &n, Workers: f.workers, K: 3, Seed: 1234})
	}
	if a, b := mk(got), mk(want); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: %s assigns %v on the advanced plan, %v on PlanFor's", tag, asg.Name(), a, b)
	}
	if n.Load() != 0 {
		t.Fatalf("%s: %s fell back from its own plan %d times", tag, asg.Name(), n.Load())
	}
}

// TestAppendPartsReadsEveryPart: AppendParts — what the server's
// never-mutated checks compare — sees a write to each part a plan holds, on
// a plan holding every part, and reads only the parts a plan holds: an EAI
// plan's two rankings.
func TestAppendPartsReadsEveryPart(t *testing.T) {
	f := newFixture(t, 3, true)
	p := NewPlan(f.idx, f.res)
	base := p.AppendParts(nil)
	rekey := func(r cow.Ranking, key func(int) float64) cow.Ranking {
		return r.Update([]cow.Rekey{{ID: 7, Old: key(7), New: key(7) + 0.25}}, nil)
	}
	for name, write := range map[string]func(q *Plan){
		"entRank":  func(q *Plan) { q.entRank = rekey(q.entRank, q.entropyAt) },
		"ueaiRank": func(q *Plan) { q.ueaiRank = rekey(q.ueaiRank, q.boundAt) },
		"coldRank": func(q *Plan) { q.coldRank = rekey(q.coldRank, q.coldScoreAt) },
	} {
		q := *p
		write(&q)
		if reflect.DeepEqual(q.AppendParts(nil), base) {
			t.Errorf("a write to %s left AppendParts unchanged", name)
		}
	}
	if !reflect.DeepEqual(p.AppendParts(nil), base) {
		t.Fatal("the writes above reached the plan they were made on a copy of")
	}
	if n, got := f.idx.NumObjects(), len(PlanFor(EAI{}, f.idx, f.res).AppendParts(nil)); got != 4*n {
		t.Fatalf("an EAI plan over %d objects appends %d values, want %d", n, got, 4*n)
	}
}
