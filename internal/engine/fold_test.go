package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hierarchy"
	"repro/internal/infer"
	"repro/internal/numeric"
	"repro/internal/synth"
)

// table1 is the paper's running example (Table 1) plus enough extra objects
// to estimate source trust.
func table1(t testing.TB) *data.Dataset {
	t.Helper()
	h := hierarchy.New(hierarchy.Root)
	for _, e := range [][2]string{
		{"USA", hierarchy.Root}, {"UK", hierarchy.Root}, {"NY", "USA"}, {"LA", "USA"},
		{"LibertyIsland", "NY"}, {"London", "UK"}, {"Manchester", "UK"}, {"Westminster", "London"},
	} {
		h.MustAdd(e[0], e[1])
	}
	h.Freeze()
	return &data.Dataset{
		Name: "table1", H: h,
		Records: []data.Record{
			{Object: "statue", Source: "unesco", Value: "NY"},
			{Object: "statue", Source: "wiki", Value: "LibertyIsland"},
			{Object: "statue", Source: "arrangy", Value: "LA"},
			{Object: "bigben", Source: "quora", Value: "Manchester"},
			{Object: "bigben", Source: "trip", Value: "London"},
			{Object: "esb", Source: "unesco", Value: "NY"},
			{Object: "esb", Source: "wiki", Value: "NY"},
			{Object: "esb", Source: "arrangy", Value: "LA"},
			{Object: "abbey", Source: "wiki", Value: "Westminster"},
			{Object: "abbey", Source: "unesco", Value: "London"},
			{Object: "abbey", Source: "quora", Value: "Manchester"},
		},
	}
}

// requireServesModel asserts that a sealed state publishes its model as it
// is — Rows and Model are the sealed *core.Model, and no truths map is built
// — and that what it serves reads from that model: the wire confidence and
// truths, and trust maps holding φ_{s,1} / ψ_{w,1} of every participant.
func requireServesModel(t *testing.T, tag string, st State, idx *data.Index) {
	t.Helper()
	res := st.Res()
	m := res.Model.(*core.Model)
	if res.Rows != infer.Dense(m) || res.Truths != nil {
		t.Fatalf("%s: a sealed state copied the model or rebuilt the truths map", tag)
	}
	for oid, o := range idx.Objects {
		conf := map[string]float64{}
		for i, v := range idx.ViewAt(oid).CI.Values {
			conf[v] = m.MuAt(oid)[i]
		}
		if got := st.Confidence(idx, oid); !reflect.DeepEqual(got, conf) {
			t.Fatalf("%s: Confidence(%s) = %v, the model holds %v", tag, o, got, conf)
		}
	}
	if got := st.Truths(); !reflect.DeepEqual(got, m.Truths()) {
		t.Fatalf("%s: Truths() diverges from the model's", tag)
	}
	if len(res.SourceTrust) != len(m.Phi) || len(res.WorkerTrust) != len(m.Psi) {
		t.Fatalf("%s: trust maps list %d sources / %d workers, the model %d / %d",
			tag, len(res.SourceTrust), len(res.WorkerTrust), len(m.Phi), len(m.Psi))
	}
	for sid, s := range idx.SourceNames {
		if res.SourceTrust[s] != m.Phi[sid][0] {
			t.Fatalf("%s: trust(%s) = %v, φ = %v", tag, s, res.SourceTrust[s], m.Phi[sid][0])
		}
	}
	for wid, w := range idx.WorkerNames {
		if res.WorkerTrust[w] != m.Psi[wid][0] {
			t.Fatalf("%s: trust(%s) = %v, ψ = %v", tag, w, res.WorkerTrust[w], m.Psi[wid][0])
		}
	}
}

// foldedObject is one object's fold state: its μ row, N row and D.
type foldedObject struct {
	mu, n []float64
	d     float64
}

// captureFolded copies every object's fold state out of a model.
func captureFolded(m *core.Model) []foldedObject {
	out := make([]foldedObject, m.NumObjects())
	for oid := range out {
		out[oid] = foldedObject{append([]float64(nil), m.MuAt(oid)...), append([]float64(nil), m.NAt(oid)...), m.DAt(oid)}
	}
	return out
}

// TestViewEqualsCopy: after N folds and after a Grow, on Table 1,
// BirthPlaces and Heritages, the state a fold or a growth seals serves its
// own model, uncopied (TestInferencerGolden in internal/infer pins what
// every inferencer's result holds); folds share the fitted trust maps, and
// growth rebuilds them to list the participants it added. Every fold equals
// ApplyAnswer over a clone, one answer after another, bit for bit, and
// leaves the state it was opened over as it was.
func TestViewEqualsCopy(t *testing.T) {
	for name, ds := range map[string]*data.Dataset{
		"table1":      table1(t),
		"birthplaces": synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 3, Scale: 0.03}),
		"heritages":   synth.Heritages(synth.HeritagesConfig{Seed: 3, Scale: 0.08}),
	} {
		t.Run(name, func(t *testing.T) {
			ds = ds.Clone()
			idx := data.NewIndex(ds)
			eng := NewCategorical(infer.NewTDH())
			st := eng.Fit(idx)
			fitted := st.Res()
			rng := rand.New(rand.NewSource(11))
			fold := func(round, n int) {
				var batch []data.Answer
				for i := 0; i < n; i++ {
					ov := idx.ViewAt(rng.Intn(len(idx.Objects)))
					batch = append(batch, data.Answer{
						Object: ov.Object, Worker: fmt.Sprintf("w%d-%d", round, i%3),
						Value: ov.CI.Values[rng.Intn(len(ov.CI.Values))]})
				}
				ds.Answers = append(ds.Answers, batch...)
				prev := st.Res().Model.(*core.Model)
				before, want := captureFolded(prev), prev.Clone()
				for _, a := range batch {
					ans, _ := want.Idx.View(a.Object).CI.Pos(a.Value)
					want.ApplyAnswer(a.Object, a.Worker, ans)
				}
				var ok bool
				if st, ok = eng.ApplyAnswers(st, idx, batch); !ok {
					t.Fatal("TDH state refused to fold")
				}
				if !reflect.DeepEqual(captureFolded(st.Res().Model.(*core.Model)), captureFolded(want)) {
					t.Fatalf("fold %d differs from ApplyAnswer one answer after another", round)
				}
				if !reflect.DeepEqual(captureFolded(prev), before) {
					t.Fatalf("fold %d wrote the state it was opened over", round)
				}
			}
			for round := 0; round < 6; round++ {
				fold(round, 5)
				requireServesModel(t, fmt.Sprintf("fold %d", round), st, idx)
				if reflect.ValueOf(st.Res().SourceTrust).Pointer() != reflect.ValueOf(fitted.SourceTrust).Pointer() {
					t.Fatal("a fold rebuilt the source trust map it cannot have changed")
				}
			}

			// Growth: a new object seeded with a known object's candidates, and
			// a record from a new source on a known object.
			donor := idx.ViewAt(0)
			mu := data.Mutation{
				Candidates: map[string][]string{"zz-grown": donor.CI.Values},
				Records:    []data.Record{{Object: idx.Objects[1], Source: "zz-src", Value: idx.ViewAt(1).CI.Values[0]}},
			}
			ds.Candidates = map[string][]string{"zz-grown": donor.CI.Values}
			ds.Records = append(ds.Records, mu.Records...)
			var touched []int
			idx, touched = idx.Extend(ds, mu)
			var ok bool
			if st, ok = eng.Grow(st, idx, touched); !ok {
				t.Fatal("TDH state refused to grow")
			}
			requireServesModel(t, "grow", st, idx)
			if _, ok := st.Res().SourceTrust["zz-src"]; !ok {
				t.Fatal("growth added a source the trust map does not list")
			}
			fold(99, 5)
			requireServesModel(t, "fold after grow", st, idx)
		})
	}
}

// stockDataset is one attribute of the synthetic stock quotes as a dataset.
func stockDataset(symbols int) *data.Dataset {
	attr := synth.Stock(synth.StockConfig{Seed: 5, Symbols: symbols})[1]
	return &data.Dataset{Name: "stock", Records: attr.Records}
}

// noisyAnswers draws n worker answers, each a ~1 % noisy reading of the
// object's current estimate, over random objects and a small worker pool
// that mixes workers the fit has seen with ones it has not.
func noisyAnswers(rng *rand.Rand, st State, idx *data.Index, round, n int) []data.Answer {
	est := st.Truths().(map[string]float64)
	out := make([]data.Answer, 0, n)
	for i := 0; i < n; i++ {
		o := idx.Objects[rng.Intn(len(idx.Objects))]
		v := est[o] * (1 + 0.01*rng.NormFloat64())
		out = append(out, data.Answer{Object: o, Worker: fmt.Sprintf("nw%d", (round*n+i)%7),
			Value: strconv.FormatFloat(v, 'g', -1, 64), Num: &v})
	}
	return out
}

// TestNumericFoldContract pins what a numeric fold is. For the weightless
// estimators it IS the fit: folding batches ≡ Fit over the same dataset,
// exactly. For CRH / CATD it is the from-scratch estimate under the weights
// frozen at the last Fit (every object re-estimated by Local over a freshly
// parsed claim table, within 1e-12), and a Fit after the folds is a cold
// Fit, exactly.
func TestNumericFoldContract(t *testing.T) {
	for _, est := range numericEstimators() {
		t.Run(est.Name(), func(t *testing.T) {
			ds := stockDataset(40)
			idx := data.NewIndex(ds)
			eng := NewNumeric(est)
			fit0 := eng.Fit(idx)
			st := fit0
			rng := rand.New(rand.NewSource(7))
			for round := 0; round < 8; round++ {
				batch := noisyAnswers(rng, st, idx, round, 8)
				ds.Answers = append(ds.Answers, batch...)
				next, ok := eng.ApplyAnswers(st, idx, batch)
				if !ok {
					t.Fatal("numeric state refused to fold")
				}
				st = next
			}
			folded := st.Truths().(map[string]float64)
			cold := eng.Fit(data.NewIndex(ds.Clone())).Truths().(map[string]float64)
			refit := eng.Fit(idx).Truths().(map[string]float64)
			if !reflect.DeepEqual(refit, cold) {
				t.Fatal("a refit after the folds differs from a cold Fit")
			}

			weights := fit0.(*numState).weights
			if weights == nil {
				if !reflect.DeepEqual(folded, cold) {
					t.Fatalf("weightless fold differs from Fit over the same dataset")
				}
				return
			}
			// Same frozen weights, from scratch: a fresh state parses the whole
			// dataset (answers included) under fit0's weights.
			ref := newNumState(idx, weights)
			all := make([]int, len(idx.Objects))
			for oid := range all {
				all[oid] = oid
			}
			ref.parseClaims(all)
			moved := 0
			for oid, o := range idx.Objects {
				want := est.Local(ref.claims[oid])
				if got := folded[o]; math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
					t.Fatalf("%s: folded %v, from scratch under the frozen weights %v", o, got, want)
				}
				if folded[o] != fit0.Truths().(map[string]float64)[o] {
					moved++
				}
			}
			if moved == 0 {
				t.Fatal("64 answers moved no estimate")
			}
		})
	}
}

// TestNumericFoldStaleness measures what freezing the weights costs: over
// one default refit interval (64 answers) on the 300-symbol stock campaign
// the benchmark runs, the worst relative gap between the folded CRH
// estimates and a from-scratch CRH fit over the same data. Measured
// 5.3e-4; pinned with an order of magnitude of headroom — the refit that
// follows closes it.
func TestNumericFoldStaleness(t *testing.T) {
	ds := stockDataset(300)
	idx := data.NewIndex(ds)
	eng := NewNumeric(numeric.CRH{})
	st := eng.Fit(idx)
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 8; round++ {
		batch := noisyAnswers(rng, st, idx, round, 8)
		ds.Answers = append(ds.Answers, batch...)
		st, _ = eng.ApplyAnswers(st, idx, batch)
	}
	folded := st.Truths().(map[string]float64)
	worst := 0.0
	for o, want := range eng.Fit(idx).Truths().(map[string]float64) {
		worst = math.Max(worst, math.Abs(folded[o]-want)/math.Max(1e-9, math.Abs(want)))
	}
	t.Logf("worst relative gap, folded vs from-scratch CRH after 64 answers: %.3g", worst)
	if worst > 5e-3 {
		t.Fatalf("folded CRH estimates drifted %.3g from the fit within one refit interval", worst)
	}
}

// TestNumericGrow: growth re-estimates the touched objects from the extended
// dataset and carries every other row over untouched.
func TestNumericGrow(t *testing.T) {
	ds := numDataset(t, 3)
	idx := data.NewIndex(ds)
	eng := NewNumeric(numeric.Mean{})
	st := eng.Fit(idx)
	batch := []data.Answer{{Object: "na", Worker: "w1", Value: "10"}}
	ds.Answers = append(ds.Answers, batch...)
	st, _ = eng.ApplyAnswers(st, idx, batch)

	mu := data.Mutation{Records: []data.Record{
		{Object: "na", Source: "s9", Value: "12"}, {Object: "nz", Source: "s9", Value: "7"}}}
	ds.Records = append(ds.Records, mu.Records...)
	next, touched := idx.Extend(ds, mu)
	grown, ok := eng.Grow(st, next, touched)
	if !ok {
		t.Fatal("numeric state refused to grow")
	}
	got := grown.Truths().(map[string]float64)
	if want := (10 + 10.2 + 18 + 12 + 10) / 5; math.Abs(got["na"]-want) > 1e-12 {
		t.Fatalf("grown na = %v, want %v", got["na"], want)
	}
	if got["nz"] != 7 {
		t.Fatalf("new object nz = %v, want 7", got["nz"])
	}
	if !reflect.DeepEqual(got, eng.Fit(next).Truths()) {
		t.Fatal("MEAN after fold + grow differs from a Fit over the same dataset")
	}
	if len(st.Truths().(map[string]float64)) != 3 {
		t.Fatal("growth wrote the state it grew from")
	}
	nb := next.View("nb").ID
	if &grown.Res().ConfidenceAt(next, nb)[0] != &st.Res().ConfidenceAt(idx, nb)[0] {
		t.Fatal("growth rebuilt the row of an object it did not touch")
	}
}

// TestNumericTrust pins the /trust bugfix: CRH and CATD fit a weight per
// provider and now publish it — sources by name, "w:" pseudo-sources as
// workers, scaled to [0,1] by the largest — and carry it through folds;
// the weightless estimators publish nothing.
func TestNumericTrust(t *testing.T) {
	ds := numDataset(t, 6)
	for i := 0; i < 6; i++ {
		o := "n" + string(rune('a'+i))
		ds.Answers = append(ds.Answers,
			data.Answer{Object: o, Worker: "good", Value: "10.1"},
			data.Answer{Object: o, Worker: "bad", Value: "30"})
	}
	idx := data.NewIndex(ds)
	for _, name := range []string{"CRH", "CATD"} {
		eng, _ := New(Numeric, name, Config{})
		st := eng.Fit(idx)
		res := st.Res()
		if len(res.SourceTrust) != 3 || len(res.WorkerTrust) != 2 {
			t.Fatalf("%s: trust = %v / %v, want 3 sources and 2 workers", name, res.SourceTrust, res.WorkerTrust)
		}
		top := 0.0
		for _, m := range []map[string]float64{res.SourceTrust, res.WorkerTrust} {
			for p, v := range m {
				if v < 0 || v > 1 {
					t.Fatalf("%s: trust[%s] = %v outside [0,1]", name, p, v)
				}
				top = math.Max(top, v)
			}
		}
		if top != 1 {
			t.Fatalf("%s: largest trust = %v, want 1", name, top)
		}
		if res.WorkerTrust["good"] <= res.WorkerTrust["bad"] || res.SourceTrust["s1"] <= res.SourceTrust["s3"] {
			t.Fatalf("%s: trust does not rank the accurate providers first: %v / %v", name, res.SourceTrust, res.WorkerTrust)
		}
		batch := []data.Answer{{Object: "na", Worker: "late", Value: "10"}}
		folded, _ := eng.ApplyAnswers(st, idx, batch)
		if !reflect.DeepEqual(folded.Res().WorkerTrust, res.WorkerTrust) {
			t.Fatalf("%s: a fold changed the published trust", name)
		}
	}
	for _, name := range []string{"MEAN", "MEDIAN", "VOTE"} {
		eng, _ := New(Numeric, name, Config{})
		if res := eng.Fit(idx).Res(); len(res.SourceTrust)+len(res.WorkerTrust) != 0 {
			t.Fatalf("%s has no weights but published trust %v / %v", name, res.SourceTrust, res.WorkerTrust)
		}
	}
}
