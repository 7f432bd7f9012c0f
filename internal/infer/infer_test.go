package infer

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/hierarchy"
)

// candPos is the position of candidate v, which the test knows is in Vo.
func candPos(ci *hierarchy.CandidateIndex, v string) int {
	i, ok := ci.Pos(v)
	if !ok {
		panic("candidate " + v + " not in Vo")
	}
	return i
}

func geoTree(t testing.TB) *hierarchy.Tree {
	t.Helper()
	tr := hierarchy.New(hierarchy.Root)
	for _, e := range [][2]string{
		{"USA", hierarchy.Root}, {"UK", hierarchy.Root},
		{"NY", "USA"}, {"LA", "USA"}, {"LibertyIsland", "NY"},
		{"London", "UK"}, {"Manchester", "UK"}, {"Westminster", "London"},
	} {
		tr.MustAdd(e[0], e[1])
	}
	tr.Freeze()
	return tr
}

// reliableVsNoisy builds a dataset where source "good" is right on every
// object with a known gold, "bad" is always wrong, and they conflict on a
// probe object. Any reliability-aware algorithm must side with "good" on
// the probe; VOTE cannot.
func reliableVsNoisy(t testing.TB) *data.Dataset {
	t.Helper()
	ds := &data.Dataset{
		Name:    "rel",
		Truth:   map[string]string{},
		Domains: map[string]string{},
		H:       geoTree(t),
	}
	objs := []string{"o1", "o2", "o3", "o4", "o5", "o6"}
	for _, o := range objs {
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "good", Value: "NY"},
			data.Record{Object: o, Source: "cons1", Value: "NY"},
			data.Record{Object: o, Source: "bad", Value: "LA"},
		)
		ds.Truth[o] = "NY"
		ds.Domains[o] = "USA"
	}
	// Probe: good vs bad only — a 1-1 tie for VOTE.
	ds.Records = append(ds.Records,
		data.Record{Object: "probe", Source: "good", Value: "London"},
		data.Record{Object: "probe", Source: "bad", Value: "Manchester"},
	)
	ds.Truth["probe"] = "London"
	ds.Domains["probe"] = "UK"
	return ds
}

// TestReliabilityAware checks that every reliability-modelling algorithm
// resolves the probe tie toward the historically accurate source.
func TestReliabilityAware(t *testing.T) {
	ds := reliableVsNoisy(t)
	idx := data.NewIndex(ds)
	for _, alg := range []Inferencer{
		NewTDH(), LCA{}, DOCS{}, MDC{}, Accu{DetectDependence: true},
		Accu{}, PopAccu{}, LFC{}, CRH{},
	} {
		res := alg.Infer(idx)
		if got := res.Truths["probe"]; got != "London" {
			t.Errorf("%s: probe = %q, want London (reliability should break the tie)", alg.Name(), got)
		}
		if res.SourceTrust["good"] <= res.SourceTrust["bad"] {
			t.Errorf("%s: trust(good)=%v should exceed trust(bad)=%v",
				alg.Name(), res.SourceTrust["good"], res.SourceTrust["bad"])
		}
	}
}

// TestConfidencesNormalized: every algorithm must publish per-object
// confidence distributions (needed by the generic task assigners).
func TestConfidencesNormalized(t *testing.T) {
	ds := reliableVsNoisy(t)
	ds.Answers = append(ds.Answers, data.Answer{Object: "probe", Worker: "w1", Value: "London"})
	idx := data.NewIndex(ds)
	for _, alg := range []Inferencer{
		NewTDH(), Vote{}, LCA{}, DOCS{}, ASUMS{}, MDC{},
		Accu{DetectDependence: true}, PopAccu{}, LFC{}, CRH{},
	} {
		res := alg.Infer(idx)
		for _, o := range idx.Objects {
			conf := res.ConfidenceAt(idx.View(o).ID)
			if len(conf) != idx.View(o).CI.NumValues() {
				t.Fatalf("%s: confidence shape wrong on %s", alg.Name(), o)
			}
			sum := 0.0
			for _, p := range conf {
				if p < -1e-12 {
					t.Fatalf("%s: negative confidence on %s: %v", alg.Name(), o, conf)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("%s: confidence not normalized on %s: %v", alg.Name(), o, conf)
			}
		}
		if len(res.Truths) != idx.NumObjects() {
			t.Fatalf("%s: missing truths", alg.Name())
		}
	}
}

// TestWorkerTrustSeparated: algorithms must keep worker trust separate from
// source trust.
func TestWorkerTrustSeparated(t *testing.T) {
	ds := reliableVsNoisy(t)
	for _, o := range []string{"o1", "o2", "o3"} {
		ds.Answers = append(ds.Answers, data.Answer{Object: o, Worker: "w-good", Value: "NY"})
		ds.Answers = append(ds.Answers, data.Answer{Object: o, Worker: "w-bad", Value: "LA"})
	}
	idx := data.NewIndex(ds)
	for _, alg := range []Inferencer{NewTDH(), LCA{}, DOCS{}} {
		res := alg.Infer(idx)
		if _, ok := res.WorkerTrust["w-good"]; !ok {
			t.Fatalf("%s: missing worker trust", alg.Name())
		}
		if res.WorkerTrust["w-good"] <= res.WorkerTrust["w-bad"] {
			t.Errorf("%s: w-good must out-trust w-bad", alg.Name())
		}
		if _, ok := res.SourceTrust["w-good"]; ok {
			t.Errorf("%s: worker leaked into source trust", alg.Name())
		}
	}
}

func TestVoteMajorityAndTieBreak(t *testing.T) {
	ds := &data.Dataset{
		Name: "v",
		Records: []data.Record{
			{Object: "o", Source: "a", Value: "NY"},
			{Object: "o", Source: "b", Value: "NY"},
			{Object: "o", Source: "c", Value: "LA"},
			// tie object: equal votes for a value and its ancestor — VOTE
			// must break toward the more general one.
			{Object: "t", Source: "a", Value: "LibertyIsland"},
			{Object: "t", Source: "b", Value: "NY"},
		},
		Truth: map[string]string{},
		H:     geoTree(t),
	}
	res := Vote{}.Infer(data.NewIndex(ds))
	if res.Truths["o"] != "NY" {
		t.Fatalf("majority = %q", res.Truths["o"])
	}
	if res.Truths["t"] != "NY" {
		t.Fatalf("tie should break general: %q", res.Truths["t"])
	}
}

func TestASUMSHierarchicalSupport(t *testing.T) {
	// Two specific claims under one ancestor should beat two exact claims
	// on an unrelated value... with ASUMS the ancestor accumulates support
	// from descendants; the threshold then selects the deepest confident
	// value.
	ds := &data.Dataset{
		Name: "a",
		Records: []data.Record{
			{Object: "o", Source: "s1", Value: "LibertyIsland"},
			{Object: "o", Source: "s2", Value: "NY"},
			{Object: "o", Source: "s3", Value: "LA"},
		},
		Truth: map[string]string{},
		H:     geoTree(t),
	}
	res := ASUMS{}.Infer(data.NewIndex(ds))
	got := res.Truths["o"]
	if got != "NY" && got != "LibertyIsland" {
		t.Fatalf("ASUMS should land in the NY branch, got %q", got)
	}
}

func TestASUMSThresholdControlsGranularity(t *testing.T) {
	// Two specific claims and one general claim: the Sums fixpoint gives
	// the leaf exactly half the ancestor's belief, so the chosen threshold
	// decides the granularity — the drawback the paper points out.
	ds := &data.Dataset{
		Name: "a2",
		Records: []data.Record{
			{Object: "o", Source: "s1", Value: "LibertyIsland"},
			{Object: "o", Source: "s2", Value: "LibertyIsland"},
			{Object: "o", Source: "s3", Value: "NY"},
		},
		Truth: map[string]string{},
		H:     geoTree(t),
	}
	idx := data.NewIndex(ds)
	deep := ASUMS{Threshold: 0.45}.Infer(idx).Truths["o"]
	shallow := ASUMS{Threshold: 0.99}.Infer(idx).Truths["o"]
	if deep != "LibertyIsland" {
		t.Fatalf("permissive threshold should pick the leaf, got %q", deep)
	}
	if shallow != "NY" {
		t.Fatalf("strict threshold should stay general, got %q", shallow)
	}
}

func TestDOCSDomainAwareness(t *testing.T) {
	// Source "expert" is perfect in domain USA and terrible in UK; "uk-pro"
	// is the reverse. On fresh conflicts DOCS must trust each in its own
	// domain.
	ds := &data.Dataset{
		Name:    "d",
		Truth:   map[string]string{},
		Domains: map[string]string{},
		H:       geoTree(t),
	}
	for i := 0; i < 5; i++ {
		us := "us" + string(rune('0'+i))
		uk := "uk" + string(rune('0'+i))
		ds.Records = append(ds.Records,
			data.Record{Object: us, Source: "expert", Value: "NY"},
			data.Record{Object: us, Source: "ref", Value: "NY"},
			data.Record{Object: us, Source: "uk-pro", Value: "LA"},
			data.Record{Object: uk, Source: "uk-pro", Value: "London"},
			data.Record{Object: uk, Source: "ref2", Value: "London"},
			data.Record{Object: uk, Source: "expert", Value: "Manchester"},
		)
		ds.Domains[us] = "USA"
		ds.Domains[uk] = "UK"
	}
	ds.Records = append(ds.Records,
		data.Record{Object: "probe-us", Source: "expert", Value: "NY"},
		data.Record{Object: "probe-us", Source: "uk-pro", Value: "LA"},
		data.Record{Object: "probe-uk", Source: "expert", Value: "Manchester"},
		data.Record{Object: "probe-uk", Source: "uk-pro", Value: "London"},
	)
	ds.Domains["probe-us"] = "USA"
	ds.Domains["probe-uk"] = "UK"
	res := DOCS{}.Infer(data.NewIndex(ds))
	if res.Truths["probe-us"] != "NY" {
		t.Errorf("probe-us = %q, want NY (expert's domain)", res.Truths["probe-us"])
	}
	if res.Truths["probe-uk"] != "London" {
		t.Errorf("probe-uk = %q, want London (uk-pro's domain)", res.Truths["probe-uk"])
	}
	st := res.Model.(*DOCSState)
	if st.Quality("expert", "USA") <= st.Quality("expert", "UK") {
		t.Error("expert must be better in USA than UK")
	}
	if st.Quality("never", "USA") != st.Prior {
		t.Error("unknown provider must fall back to prior quality")
	}
}

func TestAccuDependenceDiscount(t *testing.T) {
	// Copiers share the original's FALSE values; independents share only
	// true values. Shared false values are much stronger copy evidence, so
	// the copier's vote must be discounted below an independent's.
	ds := &data.Dataset{Name: "c", Truth: map[string]string{}, H: geoTree(t)}
	for i := 0; i < 8; i++ {
		o := "x" + string(rune('0'+i))
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "orig", Value: "LA"},
			data.Record{Object: o, Source: "copy1", Value: "LA"},
			data.Record{Object: o, Source: "ind1", Value: "NY"},
			data.Record{Object: o, Source: "ind2", Value: "NY"},
			data.Record{Object: o, Source: "ind3", Value: "NY"},
		)
		ds.Truth[o] = "NY"
	}
	idx := data.NewIndex(ds)
	a := Accu{DetectDependence: true, MaxIter: 20, CopyRate: 0.8, CopyPrior: 0.1}
	_, tab := newResult(idx)
	// Seed confidences at the majority outcome (NY true, LA false), then
	// inspect the pairwise analysis directly.
	for oid := range idx.Objects {
		ov := idx.ViewAt(oid)
		conf := tab.Row(oid)
		conf[candPos(ov.CI, "NY")] = 0.9
		conf[candPos(ov.CI, "LA")] = 0.1
	}
	trust := map[provider]float64{}
	for oid := range idx.Objects {
		for _, cl := range claimsOf(idx, oid) {
			trust[cl.p] = 0.8
		}
	}
	indep := a.dependenceDiscount(idx, tab, trust, false)
	m := indep[idx.View("x0").ID]
	if m == nil {
		t.Fatal("no discount map")
	}
	copier := m[provider{"copy1", false}] * m[provider{"orig", false}]
	independent := m[provider{"ind2", false}] * m[provider{"ind3", false}]
	// The LA-sharing pair must lose more vote weight than the NY-sharing
	// trio (shared false >> shared true as copy evidence).
	if copier >= independent {
		t.Errorf("copier block weight %v must be below independents %v", copier, independent)
	}
	// End-to-end: with the accuracy signal present (3 vs 2 majority), the
	// dependence-aware ACCU must keep the truth.
	full := a.Infer(idx)
	for o := range ds.Truth {
		if full.Truths[o] != "NY" {
			t.Fatalf("ACCU lost %s to the copier block", o)
		}
	}
}

func TestLFCConfusionLearning(t *testing.T) {
	// A source that systematically swaps NY->LA is perfectly informative
	// once its confusion is learned; LFC should exploit agreement of the
	// truthful pair and not be dragged by the swapper.
	ds := &data.Dataset{Name: "l", Truth: map[string]string{}, H: geoTree(t)}
	for i := 0; i < 6; i++ {
		o := "x" + string(rune('0'+i))
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "t1", Value: "NY"},
			data.Record{Object: o, Source: "t2", Value: "NY"},
			data.Record{Object: o, Source: "swap", Value: "LA"},
		)
		ds.Truth[o] = "NY"
	}
	res := LFC{}.Infer(data.NewIndex(ds))
	for o := range ds.Truth {
		if res.Truths[o] != "NY" {
			t.Fatalf("LFC: %s = %q", o, res.Truths[o])
		}
	}
	if res.SourceTrust["swap"] >= res.SourceTrust["t1"] {
		t.Error("swapper's diagonal mass must be lower")
	}
}

func TestNamesAreStable(t *testing.T) {
	names := map[string]bool{}
	for _, alg := range []Inferencer{
		NewTDH(), Vote{}, LCA{}, DOCS{}, ASUMS{}, MDC{},
		Accu{DetectDependence: true}, PopAccu{}, LFC{}, CRH{},
	} {
		if names[alg.Name()] {
			t.Fatalf("duplicate name %q", alg.Name())
		}
		names[alg.Name()] = true
	}
	if !names["TDH"] || !names["VOTE"] || !names["ACCU"] {
		t.Fatal("paper names missing")
	}
	noPop := NewTDH()
	noPop.Opt.UniformWorkerErrors = true
	if noPop.Name() != "TDH-NOPOP" {
		t.Fatal("ablation name wrong")
	}
}
