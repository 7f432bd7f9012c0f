package infer

import (
	"testing"

	"repro/internal/data"
)

// allInferencers is the full algorithm matrix, including the extra lineage
// baselines (SUMS, SIMPLELCA) and the TDH-NOPOP ablation. The tests below
// also run it on every dataset stripped of its hierarchy (flatInput), which
// covers the TDH-FLAT ablation.
func allInferencers() []Inferencer {
	noPop := NewTDH()
	noPop.Opt.UniformWorkerErrors = true
	return []Inferencer{
		NewTDH(), noPop,
		Vote{}, LCA{}, SimpleLCA{}, DOCS{}, ASUMS{}, Sums{}, MDC{},
		Accu{DetectDependence: true}, Accu{}, PopAccu{}, LFC{}, CRH{},
	}
}

// TestRobustnessMatrix runs every algorithm against a gauntlet of
// degenerate datasets: none may panic, every object must get a truth from
// its candidate set, and confidences must stay aligned with Vo.
func TestRobustnessMatrix(t *testing.T) {
	tree := geoTree(t)
	gauntlet := []*data.Dataset{
		{ // empty
			Name:  "empty",
			Truth: map[string]string{},
		},
		{ // single record
			Name:    "single",
			Records: []data.Record{{Object: "o", Source: "s", Value: "NY"}},
			Truth:   map[string]string{},
			H:       tree,
		},
		{ // all sources agree
			Name: "unanimous",
			Records: []data.Record{
				{Object: "o", Source: "s1", Value: "NY"},
				{Object: "o", Source: "s2", Value: "NY"},
				{Object: "o", Source: "s3", Value: "NY"},
			},
			Truth: map[string]string{},
			H:     tree,
		},
		{ // total disagreement, one claim each
			Name: "chaos",
			Records: []data.Record{
				{Object: "o", Source: "s1", Value: "NY"},
				{Object: "o", Source: "s2", Value: "LA"},
				{Object: "o", Source: "s3", Value: "London"},
				{Object: "o", Source: "s4", Value: "Manchester"},
			},
			Truth: map[string]string{},
			H:     tree,
		},
		{ // workers only, no source records for one object
			Name: "workers-only",
			Records: []data.Record{
				{Object: "a", Source: "s1", Value: "NY"},
			},
			Answers: []data.Answer{
				{Object: "a", Worker: "w1", Value: "LA"},
				{Object: "a", Worker: "w2", Value: "LA"},
			},
			Truth: map[string]string{},
			H:     tree,
		},
		{ // full ancestor chain as candidates (no wrong value possible)
			Name: "chain",
			Records: []data.Record{
				{Object: "o", Source: "s1", Value: "USA"},
				{Object: "o", Source: "s2", Value: "NY"},
				{Object: "o", Source: "s3", Value: "LibertyIsland"},
			},
			Truth: map[string]string{},
			H:     tree,
		},
		{ // values missing from the hierarchy entirely
			Name: "off-tree",
			Records: []data.Record{
				{Object: "o", Source: "s1", Value: "Atlantis"},
				{Object: "o", Source: "s2", Value: "Mu"},
				{Object: "o", Source: "s3", Value: "Atlantis"},
			},
			Truth: map[string]string{},
			H:     tree,
		},
		{ // no hierarchy at all
			Name: "no-tree",
			Records: []data.Record{
				{Object: "o", Source: "s1", Value: "x"},
				{Object: "o", Source: "s2", Value: "y"},
			},
			Truth: map[string]string{},
		},
		{ // one source claiming everything
			Name: "monopoly",
			Records: []data.Record{
				{Object: "a", Source: "mono", Value: "NY"},
				{Object: "b", Source: "mono", Value: "LA"},
				{Object: "c", Source: "mono", Value: "London"},
			},
			Truth: map[string]string{},
			H:     tree,
		},
	}
	// Each again stripped of its hierarchy (the range reads the list once).
	for _, ds := range gauntlet {
		gauntlet = append(gauntlet, flatInput(ds))
	}
	for _, ds := range gauntlet {
		idx := data.NewIndex(ds)
		for _, alg := range allInferencers() {
			res := func() (r *Result) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s panicked on %s: %v", alg.Name(), ds.Name, p)
					}
				}()
				return alg.Infer(idx)
			}()
			for _, o := range idx.Objects {
				ov := idx.View(o)
				truth, ok := res.Truths[o]
				if !ok {
					t.Fatalf("%s on %s: missing truth for %s", alg.Name(), ds.Name, o)
				}
				if _, in := ov.CI.Pos(truth); !in {
					t.Fatalf("%s on %s: truth %q for %s outside Vo", alg.Name(), ds.Name, truth, o)
				}
				if len(res.ConfidenceAt(ov.ID)) != ov.CI.NumValues() {
					t.Fatalf("%s on %s: confidence misaligned for %s", alg.Name(), ds.Name, o)
				}
			}
		}
	}
}

// TestTrustRanges: trust estimates must stay in [0, 1] for every algorithm
// on a realistic dataset, with and without its hierarchy.
func TestTrustRanges(t *testing.T) {
	ds := reliableVsNoisy(t)
	ds.Answers = append(ds.Answers,
		data.Answer{Object: "o1", Worker: "w1", Value: "NY"},
		data.Answer{Object: "o2", Worker: "w1", Value: "NY"},
	)
	for _, in := range []*data.Dataset{ds, flatInput(ds)} {
		idx := data.NewIndex(in)
		for _, alg := range allInferencers() {
			res := alg.Infer(idx)
			for s, v := range res.SourceTrust {
				if v < -1e-9 || v > 1+1e-9 {
					t.Errorf("%s on %s: source trust(%s) = %v out of range", alg.Name(), in.Name, s, v)
				}
			}
			for w, v := range res.WorkerTrust {
				if v < -1e-9 || v > 1+1e-9 {
					t.Errorf("%s on %s: worker trust(%s) = %v out of range", alg.Name(), in.Name, w, v)
				}
			}
		}
	}
}

// TestSumsVsASUMSHierarchy: on a dataset where support is split across
// generalization levels, hierarchical ASUMS must aggregate it while flat
// SUMS cannot — the value of Beretta et al.'s adaptation.
func TestSumsVsASUMSHierarchy(t *testing.T) {
	tree := geoTree(t)
	ds := &data.Dataset{Name: "s", Truth: map[string]string{}, H: tree}
	// Per object: the NY branch holds 3 claims split across levels
	// (LibertyIsland, NY), Manchester holds 2 exact claims.
	for i := 0; i < 4; i++ {
		o := "o" + string(rune('0'+i))
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "s1", Value: "LibertyIsland"},
			data.Record{Object: o, Source: "s2", Value: "NY"},
			data.Record{Object: o, Source: "s3", Value: "NY"},
			data.Record{Object: o, Source: "s4", Value: "Manchester"},
			data.Record{Object: o, Source: "s5", Value: "Manchester"},
		)
	}
	idx := data.NewIndex(ds)
	asums := ASUMS{}.Infer(idx)
	for _, o := range idx.Objects {
		got := asums.Truths[o]
		if got != "NY" && got != "LibertyIsland" {
			t.Errorf("ASUMS should land in the NY branch on %s, got %q", o, got)
		}
	}
}

func TestSimpleLCAReliability(t *testing.T) {
	ds := reliableVsNoisy(t)
	res := SimpleLCA{}.Infer(data.NewIndex(ds))
	if res.Truths["probe"] != "London" {
		t.Fatalf("probe = %q", res.Truths["probe"])
	}
	if res.SourceTrust["good"] <= res.SourceTrust["bad"] {
		t.Fatal("SimpleLCA must learn the reliability gap")
	}
}
