package engine

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/hierarchy"
	"repro/internal/infer"
)

// candPos is the position of candidate v, which the test knows is in Vo.
func candPos(ci *hierarchy.CandidateIndex, v string) int {
	i, ok := ci.Pos(v)
	if !ok {
		panic("candidate " + v + " not in Vo")
	}
	return i
}

// geoDataset builds a small categorical dataset: three sources of differing
// quality claim a place for every object over a geography hierarchy.
func geoDataset(t testing.TB, objects int) *data.Dataset {
	t.Helper()
	h := hierarchy.New(hierarchy.Root)
	h.MustAdd("USA", hierarchy.Root)
	h.MustAdd("UK", hierarchy.Root)
	h.MustAdd("NY", "USA")
	h.MustAdd("LA", "USA")
	h.MustAdd("London", "UK")
	h.Freeze()
	ds := &data.Dataset{Name: "geo", Truth: map[string]string{}, H: h}
	for i := 0; i < objects; i++ {
		o := "o" + string(rune('a'+i))
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "s1", Value: "NY"},
			data.Record{Object: o, Source: "s2", Value: "USA"},
			data.Record{Object: o, Source: "s3", Value: "LA"},
		)
		ds.Truth[o] = "NY"
	}
	return ds
}

// numDataset builds a numeric dataset: three sources report a reading per
// object, two agreeing and one off by a constant.
func numDataset(t testing.TB, objects int) *data.Dataset {
	t.Helper()
	ds := &data.Dataset{Name: "num", Truth: map[string]string{}}
	vals := []string{"10", "10.2", "18"}
	for i := 0; i < objects; i++ {
		o := "n" + string(rune('a'+i))
		for s, v := range vals {
			ds.Records = append(ds.Records,
				data.Record{Object: o, Source: "s" + string(rune('1'+s)), Value: v})
		}
		ds.Truth[o] = "10.1"
	}
	return ds
}

func TestParseTruthModel(t *testing.T) {
	cases := []struct {
		in   string
		want TruthModel
		err  bool
	}{
		{"", Categorical, false},
		{"categorical", Categorical, false},
		{"numeric", Numeric, false},
		{"multi_truth", MultiTruth, false},
		{"fuzzy", "", true},
		{"Categorical", "", true},
	}
	for _, tc := range cases {
		got, err := ParseTruthModel(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseTruthModel(%q) = (%q, %v), want (%q, err=%v)", tc.in, got, err, tc.want, tc.err)
		}
	}
}

// TestRegistry pins the per-model name lists, the defaults, and that
// constructor errors for unknown names list the valid ones (served verbatim
// as the campaign API's 422 body).
func TestRegistry(t *testing.T) {
	if got := Inferencers(Categorical); got[0] != "TDH" || len(got) != 10 {
		t.Fatalf("categorical inferencers = %v", got)
	}
	if got := Inferencers(Numeric); !reflect.DeepEqual(got, []string{"CRH", "CATD", "MEAN", "MEDIAN", "VOTE"}) {
		t.Fatalf("numeric inferencers = %v", got)
	}
	if got := Inferencers(MultiTruth); !reflect.DeepEqual(got, []string{"LTM", "DART", "LFC-MT"}) {
		t.Fatalf("multi-truth inferencers = %v", got)
	}
	if DefaultInferencer(Numeric) != "CRH" || DefaultAssigner(Numeric) != "ME" {
		t.Fatalf("numeric defaults = %s+%s", DefaultInferencer(Numeric), DefaultAssigner(Numeric))
	}
	if DefaultInferencer(Categorical) != "TDH" || DefaultAssigner(Categorical) != "EAI" {
		t.Fatalf("categorical defaults = %s+%s", DefaultInferencer(Categorical), DefaultAssigner(Categorical))
	}

	// Every listed name constructs, and the engine reports it back.
	for _, tm := range []TruthModel{Categorical, Numeric, MultiTruth} {
		for _, name := range Inferencers(tm) {
			eng, err := New(tm, name, Config{})
			if err != nil {
				t.Fatalf("New(%s, %s): %v", tm, name, err)
			}
			if eng.Model() != tm || eng.Name() != name {
				t.Fatalf("New(%s, %s) built %s/%s", tm, name, eng.Model(), eng.Name())
			}
		}
		for _, name := range Assigners(tm) {
			if _, err := NewAssigner(tm, name); err != nil {
				t.Fatalf("NewAssigner(%s, %s): %v", tm, name, err)
			}
		}
		if _, err := New(tm, "NOPE", Config{}); err == nil ||
			!strings.Contains(err.Error(), Inferencers(tm)[0]) {
			t.Fatalf("New(%s, NOPE) err = %v, want list of valid names", tm, err)
		}
	}

	// EAI and MB read categorical model internals: rejected elsewhere.
	for _, tm := range []TruthModel{Numeric, MultiTruth} {
		for _, name := range []string{"EAI", "MB"} {
			if _, err := NewAssigner(tm, name); err == nil {
				t.Fatalf("NewAssigner(%s, %s) must fail", tm, name)
			}
		}
	}
}

// TestCategoricalFitEquivalence pins the tentpole's extraction: for every
// Table 3 inferencer, the categorical engine's Fit is the inferencer's
// Infer — identical truths, confidences within 1e-9.
func TestCategoricalFitEquivalence(t *testing.T) {
	ds := geoDataset(t, 6)
	for i, inf := range CategoricalInferencers() {
		idx := data.NewIndex(ds.Clone())
		direct := CategoricalInferencers()[i].Infer(idx)
		st := NewCategorical(inf).Fit(data.NewIndex(ds.Clone()))
		res := st.Res()
		if !reflect.DeepEqual(res.Truths, direct.Truths) {
			t.Fatalf("%s: engine truths diverge from direct path", inf.Name())
		}
		for oid, o := range idx.Objects {
			got, want := res.ConfidenceAt(idx, oid), direct.ConfidenceAt(idx, oid)
			if len(got) != len(want) {
				t.Fatalf("%s: confidence row %q length %d vs %d", inf.Name(), o, len(got), len(want))
			}
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-9 {
					t.Fatalf("%s: confidence[%q][%d] = %g vs %g", inf.Name(), o, j, got[j], want[j])
				}
			}
		}
		if st.Truths().(map[string]string)["oa"] != direct.Truths["oa"] {
			t.Fatalf("%s: wire truths diverge", inf.Name())
		}
	}
}

// TestCategoricalIncrementalContract: TDH folds answers incrementally;
// model-less inferencers report ok=false and keep the stale state, exactly
// the pre-engine pipeline semantics.
func TestCategoricalIncrementalContract(t *testing.T) {
	ds := geoDataset(t, 4)
	idx := data.NewIndex(ds)
	answers := []data.Answer{
		{Object: "oa", Worker: "w1", Value: "NY"},
		{Object: "oa", Worker: "w2", Value: "NY"},
	}

	tdh := NewCategorical(infer.NewTDH())
	st := tdh.Fit(idx)
	oa, ny := idx.View("oa").ID, candPos(idx.View("oa").CI, "NY")
	before := st.Res().ConfidenceAt(idx, oa)[ny]
	st2, ok := tdh.ApplyAnswers(st, idx, answers)
	if !ok {
		t.Fatal("TDH must have an incremental path")
	}
	after := st2.Res().ConfidenceAt(idx, oa)[ny]
	if after < before {
		t.Fatalf("two supporting answers lowered confidence: %g -> %g", before, after)
	}
	if st2 == st {
		t.Fatal("ApplyAnswers must return a fresh state, not mutate the published one")
	}

	vote := NewCategorical(infer.Vote{})
	vst := vote.Fit(idx)
	if got, ok := vote.ApplyAnswers(vst, idx, answers); ok || got != vst {
		t.Fatal("model-less inferencer must keep the stale state with ok=false")
	}
	if got, ok := vote.Grow(vst, idx, nil); ok || got != vst {
		t.Fatal("model-less Grow must keep the stale state with ok=false")
	}
}

func TestCategoricalValidateAnswer(t *testing.T) {
	ds := geoDataset(t, 1)
	ov := data.NewIndex(ds).View("oa")
	eng := NewCategorical(infer.NewTDH())
	if err := eng.ValidateAnswer(ov, &data.Answer{Object: "oa", Worker: "w", Value: "NY"}); err != nil {
		t.Fatalf("candidate answer rejected: %v", err)
	}
	if err := eng.ValidateAnswer(ov, &data.Answer{Object: "oa", Worker: "w", Value: "Mars"}); err == nil {
		t.Fatal("non-candidate answer accepted")
	}
	if err := eng.ValidateAnswer(ov, &data.Answer{Object: "oa", Worker: "w", Values: []string{"NY", "LA"}}); err == nil {
		t.Fatal("value-set answer accepted by categorical engine")
	}
	n := 1.5
	if err := eng.ValidateAnswer(ov, &data.Answer{Object: "oa", Worker: "w", Value: "1.5", Num: &n}); err == nil {
		t.Fatal("numeric payload accepted by categorical engine")
	}
}

func TestNumericEngine(t *testing.T) {
	ds := numDataset(t, 3)
	idx := data.NewIndex(ds)
	eng, err := New(Numeric, "MEAN", Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Fit(idx)

	// /truths is map[object]float64; MEAN of {10, 10.2, 18} = 12.733...
	est, ok := st.Truths().(map[string]float64)
	if !ok {
		t.Fatalf("numeric truths payload is %T", st.Truths())
	}
	if got := est["na"]; math.Abs(got-(10+10.2+18)/3) > 1e-9 {
		t.Fatalf("estimate = %g", got)
	}

	// Answers are folded as pseudo-source records: two workers reading 10
	// pull the mean toward 10.
	ds.Answers = append(ds.Answers,
		data.Answer{Object: "na", Worker: "w1", Value: "10"},
		data.Answer{Object: "na", Worker: "w2", Value: "10"},
	)
	st2, ok := eng.ApplyAnswers(st, idx, ds.Answers)
	if !ok {
		t.Fatal("numeric engine must fold answers")
	}
	if got := st.Truths().(map[string]float64)["na"]; math.Abs(got-(10+10.2+18)/3) > 1e-9 {
		t.Fatalf("the fold moved the state it folded over: %g", got)
	}
	if got := st2.Truths().(map[string]float64)["na"]; math.Abs(got-(10+10.2+18+10+10)/5) > 1e-9 {
		t.Fatalf("post-answer estimate = %g", got)
	}

	// /confidence carries the estimate plus per-candidate support.
	naID, _ := idx.ObjectID("na")
	conf := st2.Confidence(idx, naID).(map[string]any)
	if _, ok := conf["estimate"].(float64); !ok {
		t.Fatalf("confidence payload = %#v", conf)
	}
	support := conf["support"].(map[string]float64)
	if support["10"] <= support["18"] {
		t.Fatalf("support must rank near values above far ones: %v", support)
	}

	// Quality is MAE / RE against the parsable gold.
	q := st2.Quality(ds, idx)
	if _, ok := q["mae"]; !ok {
		t.Fatalf("numeric quality = %v", q)
	}
}

func TestNumericValidateAnswer(t *testing.T) {
	ds := numDataset(t, 1)
	ov := data.NewIndex(ds).View("na")
	eng, err := New(Numeric, "CRH", Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Value-only answers parse and canonicalize: Num backfilled, Value
	// rewritten to the canonical decimal spelling.
	a := data.Answer{Object: "na", Worker: "w", Value: "10.50"}
	if err := eng.ValidateAnswer(ov, &a); err != nil {
		t.Fatal(err)
	}
	if a.Num == nil || *a.Num != 10.5 || a.Value != "10.5" {
		t.Fatalf("canonicalized answer = %+v", a)
	}

	// Num-only answers backfill Value. Any finite number is legal, not just
	// claimed candidates: numeric truths live on the real line.
	n := 123.25
	b := data.Answer{Object: "na", Worker: "w", Num: &n}
	if err := eng.ValidateAnswer(ov, &b); err != nil {
		t.Fatal(err)
	}
	if b.Value != "123.25" {
		t.Fatalf("backfilled value = %q", b.Value)
	}

	if err := eng.ValidateAnswer(ov, &data.Answer{Object: "na", Worker: "w", Value: "ten"}); err == nil {
		t.Fatal("unparsable value accepted")
	}
	nan := math.NaN()
	if err := eng.ValidateAnswer(ov, &data.Answer{Object: "na", Worker: "w", Num: &nan}); err == nil {
		t.Fatal("NaN accepted")
	}
	if err := eng.ValidateAnswer(ov, &data.Answer{Object: "na", Worker: "w", Values: []string{"10"}}); err == nil {
		t.Fatal("value set accepted by numeric engine")
	}
}

func TestMultiTruthEngine(t *testing.T) {
	ds := geoDataset(t, 4)
	idx := data.NewIndex(ds)
	eng, err := New(MultiTruth, "DART", Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Fit(idx)

	sets, ok := st.Truths().(map[string][]string)
	if !ok {
		t.Fatalf("multi-truth payload is %T", st.Truths())
	}
	got := append([]string(nil), sets["oa"]...)
	sort.Strings(got)
	if len(got) == 0 {
		t.Fatalf("empty truth set for oa: %v", sets)
	}

	// No incremental path: stale state until the next Fit.
	if st2, ok := eng.ApplyAnswers(st, idx, nil); ok || st2 != st {
		t.Fatal("multi-truth ApplyAnswers must keep the stale state with ok=false")
	}
	if st2, ok := eng.Grow(st, idx, nil); ok || st2 != st {
		t.Fatal("multi-truth Grow must keep the stale state with ok=false")
	}

	oaID, _ := idx.ObjectID("oa")
	conf := st.Confidence(idx, oaID).(map[string]any)
	if _, ok := conf["set"].([]string); !ok {
		t.Fatalf("confidence payload = %#v", conf)
	}
	q := st.Quality(ds, idx)
	if _, ok := q["f1"]; !ok {
		t.Fatalf("multi-truth quality = %v", q)
	}
}

func TestMultiTruthValidateAnswer(t *testing.T) {
	ds := geoDataset(t, 1)
	ov := data.NewIndex(ds).View("oa")
	eng, err := New(MultiTruth, "LTM", Config{})
	if err != nil {
		t.Fatal(err)
	}

	// A set answer is deduplicated with Value merged in front, and Value
	// canonicalized to the set head.
	a := data.Answer{Object: "oa", Worker: "w", Value: "NY", Values: []string{"LA", "NY", "LA"}}
	if err := eng.ValidateAnswer(ov, &a); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Values, []string{"NY", "LA"}) || a.Value != "NY" {
		t.Fatalf("canonicalized answer = %+v", a)
	}

	// Values-only answers work too (Value stays the set head).
	b := data.Answer{Object: "oa", Worker: "w", Values: []string{"USA", "NY"}}
	if err := eng.ValidateAnswer(ov, &b); err != nil {
		t.Fatal(err)
	}
	if b.Value != "USA" {
		t.Fatalf("set head = %q", b.Value)
	}

	// Plain single-value answers remain legal.
	if err := eng.ValidateAnswer(ov, &data.Answer{Object: "oa", Worker: "w", Value: "LA"}); err != nil {
		t.Fatal(err)
	}
	if err := eng.ValidateAnswer(ov, &data.Answer{Object: "oa", Worker: "w", Values: []string{"NY", "Mars"}}); err == nil {
		t.Fatal("non-candidate set element accepted")
	}
	n := 2.0
	if err := eng.ValidateAnswer(ov, &data.Answer{Object: "oa", Worker: "w", Value: "2", Num: &n}); err == nil {
		t.Fatal("numeric payload accepted by multi-truth engine")
	}
}
