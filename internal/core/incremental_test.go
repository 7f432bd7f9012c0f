package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/synth"
)

func TestPosteriorGivenAnswer(t *testing.T) {
	ds := table1Dataset(t)
	idx := data.NewIndex(ds)
	m := Run(idx, DefaultOptions())
	psi := [3]float64{0.8, 0.1, 0.1}
	ov := idx.View("bigben")
	london := candPos(ov.CI, "London")
	f := m.PosteriorGivenAnswerAt(ov.ID, psi, london)
	sum := 0.0
	for _, p := range f {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posterior not normalized: %v", f)
	}
	// A reliable worker answering London must put most mass on London.
	if f[london] < 0.7 {
		t.Fatalf("posterior should favor the answered value: %v", f)
	}
}

// foldOptions are the model variants whose answer rows take different
// branches: the default popularity rows Pop2/Pop3, and UniformWorkerErrors'
// 1/|Go|, 1/|rest| factors.
func foldOptions() []Options {
	uniform := DefaultOptions()
	uniform.UniformWorkerErrors = true
	return []Options{DefaultOptions(), uniform}
}

// foldDatasets are the fixtures of the fold checks: the wide fixture's
// 260-candidate object takes the row pass's spill path and the kernel's wide
// rows, and Heritages carries fitted workers. Each comes also stripped of its
// hierarchy, which sends every object through the flat row, and under
// UniformWorkerErrors through its uniform wrong-answer product ψ3·(1/(|V|−1))
// (on Heritages alone its few flat objects would let the E-step's
// θ3/(|V|−1) pass).
func foldDatasets() []*data.Dataset {
	wide := wideDataset()
	her := withTruthAnswers(synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.05}))
	return []*data.Dataset{wide, her, flatInput(wide), flatInput(her)}
}

// TestExpectedCondMaxIsItsDefinition pins ExpectedCondMaxAt's fused pass to
// the bit against Eq. 15 spelled out on the scalar claim model: Σ over
// answers v′ with P(v′) > 0 of answerLikelihood(v′) × refCondMax(v′), both
// from claimref_test.go's workerClaimProb. It also pins the exported
// AnswerLikelihoodAt and CondMaxConfidenceAt, which internal/assign composes,
// to the same references. Each ψ's WorkerTab is built once and reused across
// every object, as an EAI scan does.
func TestExpectedCondMaxIsItsDefinition(t *testing.T) {
	for _, opt := range foldOptions() {
		for _, ds := range foldDatasets() {
			m := Run(data.NewIndex(ds), opt)
			psis := append([][3]float64{m.DefaultPsi(), {0.2, 0.1, 0.7}}, m.Psi...)
			tabs := make([]WorkerTab, len(psis))
			for i, psi := range psis {
				tabs[i] = NewWorkerTab(psi)
			}
			for oid := 0; oid < m.NumObjects(); oid++ {
				ov, mu := m.Idx.ViewAt(oid), m.MuAt(oid)
				for i, psi := range psis {
					want := 0.0
					for ans := range mu {
						p, cm := m.answerLikelihood(ov, mu, psi, ans), m.refCondMax(oid, psi, ans)
						if got := m.AnswerLikelihoodAt(oid, psi, ans); math.Float64bits(got) != math.Float64bits(p) {
							t.Fatalf("%s %+v object %d, ψ %v, answer %d: AnswerLikelihoodAt %v, scalar %v", ds.Name, opt, oid, psi, ans, got, p)
						}
						if got := m.CondMaxConfidenceAt(oid, psi, ans); math.Float64bits(got) != math.Float64bits(cm) {
							t.Fatalf("%s %+v object %d, ψ %v, answer %d: CondMaxConfidenceAt %v, scalar %v", ds.Name, opt, oid, psi, ans, got, cm)
						}
						if p > 0 {
							want += p * cm
						}
					}
					if got := m.ExpectedCondMaxAt(oid, &tabs[i]); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %+v object %d, ψ %v: ExpectedCondMaxAt %v, definition %v", ds.Name, opt, oid, psi, got, want)
					}
				}
			}
		}
	}
}

func TestCondConfidenceMatchesManualUpdate(t *testing.T) {
	ds := table1Dataset(t)
	idx := data.NewIndex(ds)
	m := Run(idx, DefaultOptions())
	psi := m.DefaultPsi()
	o := "statue"
	ov := idx.View(o)
	ans := candPos(ov.CI, "LibertyIsland")
	cond := m.CondConfidence(o, psi, ans)
	f := m.PosteriorGivenAnswerAt(ov.ID, psi, ans)
	for i := range cond {
		want := (m.NAt(ov.ID)[i] + f[i]) / (m.DAt(ov.ID) + 1)
		if math.Abs(cond[i]-want) > 1e-12 {
			t.Fatalf("CondConfidence[%d] = %v, want %v", i, cond[i], want)
		}
	}
	// Normalized.
	sum := 0.0
	for _, p := range cond {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("conditional confidence not normalized: %v (sum %v)", cond, sum)
	}
	// CondMaxConfidenceAt agrees with max of CondConfidence.
	mx := 0.0
	for _, p := range cond {
		if p > mx {
			mx = p
		}
	}
	if got := m.CondMaxConfidenceAt(ov.ID, psi, ans); math.Abs(got-mx) > 1e-12 {
		t.Fatalf("CondMaxConfidenceAt = %v, want %v", got, mx)
	}
}

func TestCondConfidenceDampedByClaims(t *testing.T) {
	// The same confidence distribution but more collected claims → a new
	// answer changes the confidence LESS (the paper's core argument against
	// QASCA, Section 4.1).
	tr := geoTree(t)
	few := &data.Dataset{
		Name: "few",
		Records: []data.Record{
			{Object: "o", Source: "s1", Value: "NY"},
			{Object: "o", Source: "s2", Value: "LA"},
		},
		Truth: map[string]string{},
		H:     tr,
	}
	many := &data.Dataset{Name: "many", Truth: map[string]string{}, H: tr}
	for i := 0; i < 10; i++ {
		src := string(rune('a' + i))
		v := "NY"
		if i%2 == 1 {
			v = "LA"
		}
		many.Records = append(many.Records, data.Record{Object: "o", Source: src, Value: v})
	}
	mf := Run(data.NewIndex(few), DefaultOptions())
	mm := Run(data.NewIndex(many), DefaultOptions())
	psi := [3]float64{0.9, 0.05, 0.05}
	ovF := data.NewIndex(few).View("o")
	ansF := candPos(ovF.CI, "NY")
	ovM := data.NewIndex(many).View("o")
	ansM := candPos(ovM.CI, "NY")
	shiftFew := mf.CondMaxConfidenceAt(ovF.ID, psi, ansF) - mf.MaxConfidenceAt(ovF.ID)
	shiftMany := mm.CondMaxConfidenceAt(ovM.ID, psi, ansM) - mm.MaxConfidenceAt(ovM.ID)
	if shiftFew <= shiftMany {
		t.Fatalf("few-claims shift %v must exceed many-claims shift %v", shiftFew, shiftMany)
	}
}

func TestApplyAnswer(t *testing.T) {
	ds := table1Dataset(t)
	idx := data.NewIndex(ds)
	m := Run(idx, DefaultOptions())
	o := "bigben"
	ov := idx.View(o)
	london := candPos(ov.CI, "London")
	before := m.MuOf(o)[london]
	dBefore := m.DAt(ov.ID)
	m.ApplyAnswerAt(ov.ID, -1, london) // a worker the index has never seen
	if m.DAt(ov.ID) != dBefore+1 {
		t.Fatalf("D must grow by one")
	}
	if m.MuOf(o)[london] <= before {
		t.Fatalf("confidence must rise after a supporting answer: %v -> %v", before, m.MuOf(o)[london])
	}
	sum := 0.0
	for _, p := range m.MuOf(o) {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("mu not normalized after ApplyAnswerAt: %v", m.MuOf(o))
	}
}

// TestIncrementalApproximatesFullEM: one incremental step after one extra
// answer should land near the fully re-run EM's confidence (the
// approximation Section 4.2 argues for).
func TestIncrementalApproximatesFullEM(t *testing.T) {
	ds := table1Dataset(t)
	idx := data.NewIndex(ds)
	m := Run(idx, DefaultOptions())
	o := "bigben"
	ov := idx.View(o)
	london := candPos(ov.CI, "London")
	psi := m.DefaultPsi()
	inc := m.CondConfidence(o, psi, london)

	ds2 := ds.Clone()
	ds2.Answers = append(ds2.Answers, data.Answer{Object: o, Worker: "w-new", Value: "London"})
	m2 := Run(data.NewIndex(ds2), DefaultOptions())
	full := m2.MuOf(o)

	// Candidate order is identical (same value set). Compare coarsely: both
	// must agree on the winner and be within 0.15 per entry.
	for i := range inc {
		if math.Abs(inc[i]-full[i]) > 0.15 {
			t.Fatalf("incremental %v too far from full EM %v", inc, full)
		}
	}
	argmax := func(xs []float64) int {
		b := 0
		for i, x := range xs {
			if x > xs[b] {
				b = i
			}
		}
		return b
	}
	if argmax(inc) != argmax(full) {
		t.Fatalf("incremental and full EM disagree on the winner: %v vs %v", inc, full)
	}
}

// TestApplyAnswerAtIsTheFold pins the ID-based fold entry point to its
// definition on the scalar claim model — N += the Eq. 16 posterior of
// claimref_test.go's refPosterior, D += 1, μ = N/D, bit for bit — under
// every foldOptions variant on every foldDatasets fixture, for a fitted
// worker and for one the index has never seen (wid = -1, the prior-mean ψ).
// It also pins PosteriorGivenAnswerAt to the same reference, and shows that
// Clone shares what a fold cannot write and that the fold allocates nothing.
func TestApplyAnswerAtIsTheFold(t *testing.T) {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, opt := range foldOptions() {
		for _, ds := range foldDatasets() {
			idx := data.NewIndex(ds)
			m := Run(idx, opt)
			for oid := 0; oid < m.NumObjects(); oid++ {
				o := idx.Objects[oid]
				wids := []int{-1}
				if len(m.Psi) > 0 {
					wids = append(wids, oid%len(m.Psi))
				}
				for _, wid := range wids {
					psi := m.DefaultPsi()
					if wid >= 0 {
						psi = m.Psi[wid]
					}
					for ans := range m.MuAt(oid) {
						f := m.refPosterior(oid, psi, ans)
						if got := m.PosteriorGivenAnswerAt(oid, psi, ans); !reflect.DeepEqual(bits(got), bits(f)) {
							t.Fatalf("%s %+v object %s worker %d answer %d: PosteriorGivenAnswerAt %v, scalar %v", ds.Name, opt, o, wid, ans, got, f)
						}
						d := m.DAt(oid) + 1
						n, mu := make([]float64, len(f)), make([]float64, len(f))
						for i := range f {
							n[i] = m.NAt(oid)[i] + f[i]
							mu[i] = n[i] / d
						}
						byID := m.Clone()
						byID.ApplyAnswerAt(oid, wid, ans)
						if math.Float64bits(byID.DAt(oid)) != math.Float64bits(d) ||
							!reflect.DeepEqual(bits(byID.NAt(oid)), bits(n)) || !reflect.DeepEqual(bits(byID.MuAt(oid)), bits(mu)) {
							t.Fatalf("%s %+v object %s worker %d answer %d: D, N, μ = %v, %v, %v; want %v, %v, %v",
								ds.Name, opt, o, wid, ans, byID.DAt(oid), byID.NAt(oid), byID.MuAt(oid), d, n, mu)
						}
					}
				}
			}
		}
	}
	ds := table1Dataset(t)
	ds.Answers = []data.Answer{{Object: "esb", Worker: "ann", Value: "NY"}}
	idx := data.NewIndex(ds)
	m := Run(idx, DefaultOptions())
	oid, _ := idx.ObjectID("statue")
	ann, _ := idx.WorkerID("ann")
	// Clone shares φ/ψ and every page; the first fold into a page copies it —
	// the object's rows and its neighbours' move together, m's stay put —
	// and from then on the fold allocates nothing.
	c := m.Clone()
	other := (oid + 1) % m.NumObjects()
	if &c.Phi[0] != &m.Phi[0] || &c.Psi[0] != &m.Psi[0] || &c.MuAt(oid)[0] != &m.MuAt(oid)[0] || &c.NAt(oid)[0] != &m.NAt(oid)[0] {
		t.Fatal("Clone must share φ/ψ and the pages of μ and N")
	}
	before := append([]float64(nil), m.MuAt(oid)...)
	c.ApplyAnswerAt(oid, ann, 0)
	if &c.MuAt(oid)[0] == &m.MuAt(oid)[0] || &c.NAt(oid)[0] == &m.NAt(oid)[0] || &c.MuAt(other)[0] == &m.MuAt(other)[0] {
		t.Fatal("the first fold into a clone must copy the object's page of μ and N")
	}
	if !reflect.DeepEqual(m.MuAt(oid), before) || c.DAt(oid) != m.DAt(oid)+1 || !reflect.DeepEqual(c.MuAt(other), m.MuAt(other)) {
		t.Fatal("a fold into a clone wrote the model it was cloned from, or a neighbour's row")
	}
	if allocs := testing.AllocsPerRun(100, func() { c.ApplyAnswerAt(oid, ann, 0) }); allocs != 0 {
		t.Fatalf("ApplyAnswerAt allocates %v times per fold on an owned page", allocs)
	}
	// A fitted model owns all of its pages: the fold writes in place.
	own := Run(idx, DefaultOptions())
	row := &own.MuAt(oid)[0]
	if allocs := testing.AllocsPerRun(10, func() { own.ApplyAnswerAt(oid, ann, 0) }); allocs != 0 || &own.MuAt(oid)[0] != row {
		t.Fatalf("a fold into a fitted model copied a page (%v allocs)", allocs)
	}
}

// TestTruthAtTieBreak: the on-demand argmax keeps Truths' tie-break —
// within 1e-15 the deeper (more specific) value wins, then the
// lexicographically smaller.
func TestTruthAtTieBreak(t *testing.T) {
	idx := data.NewIndex(table1Dataset(t))
	m := Run(idx, DefaultOptions())
	oid, _ := idx.ObjectID("statue")
	vals := idx.ViewAt(oid).CI.Values // LA, LibertyIsland, NY in some order
	ci := idx.ViewAt(oid).CI
	set := func(la, li, ny float64) {
		m.MuAt(oid)[candPos(ci, "LA")], m.MuAt(oid)[candPos(ci, "LibertyIsland")], m.MuAt(oid)[candPos(ci, "NY")] = la, li, ny
	}
	for _, c := range []struct {
		la, li, ny float64
		want       string
	}{
		{1. / 3, 1. / 3, 1. / 3, "LibertyIsland"}, // three-way tie: the deepest value
		{0.4, 0.2, 0.4, "LA"},                     // LA and NY tie at one depth: lexicographic
		{0.4, 0.2, 0.4 + 1e-16, "LA"},             // a sub-1e-15 lead is still a tie
		{0.3, 0.3, 0.4, "NY"},                     // a real lead wins outright
	} {
		set(c.la, c.li, c.ny)
		if got := m.TruthAt(oid); got != c.want {
			t.Errorf("μ(LA, LibertyIsland, NY) = (%v, %v, %v): TruthAt = %q, want %q (values %v)", c.la, c.li, c.ny, got, c.want, vals)
		}
		if got := m.Truths()["statue"]; got != m.TruthAt(oid) {
			t.Errorf("Truths()[statue] = %q, TruthAt = %q", got, m.TruthAt(oid))
		}
	}
}
