package infer

import (
	"testing"

	"repro/internal/data"
)

func TestTruthFinderReliability(t *testing.T) {
	ds := reliableVsNoisy(t)
	res := TruthFinder{}.Infer(data.NewIndex(ds))
	if res.Truths["probe"] != "London" {
		t.Fatalf("probe = %q, want London", res.Truths["probe"])
	}
	if res.SourceTrust["good"] <= res.SourceTrust["bad"] {
		t.Fatalf("trust(good)=%v must exceed trust(bad)=%v",
			res.SourceTrust["good"], res.SourceTrust["bad"])
	}
}

// TestTruthFinderImplication: the hierarchical implication term must let an
// ancestor claim support its descendant, breaking a tie toward the branch
// with generalized backing.
func TestTruthFinderImplication(t *testing.T) {
	ds := &data.Dataset{Name: "tf", Truth: map[string]string{}, H: geoTree(t)}
	ds.Records = append(ds.Records,
		data.Record{Object: "o", Source: "s1", Value: "LibertyIsland"},
		data.Record{Object: "o", Source: "s2", Value: "NY"}, // supports LI via implication
		data.Record{Object: "o", Source: "s3", Value: "Manchester"},
		data.Record{Object: "o", Source: "s4", Value: "Manchester"},
	)
	idx := data.NewIndex(ds)
	with := TruthFinder{Rho: 0.9}.Infer(idx)
	ov := idx.View("o")
	li := candPos(ov.CI, "LibertyIsland")
	man := candPos(ov.CI, "Manchester")
	// With strong implication, the NY-branch pair should rival the exact
	// Manchester pair; the LibertyIsland confidence must clearly beat what
	// a lone unsupported claim would earn.
	if with.Confidence["o"][li] <= 0.5*with.Confidence["o"][man] {
		t.Fatalf("implication gave no support: LI=%v Manchester=%v",
			with.Confidence["o"][li], with.Confidence["o"][man])
	}
}

func TestTruthFinderRobustness(t *testing.T) {
	// Runs on the robustness gauntlet via allInferencers? TruthFinder is an
	// extra baseline; exercise the degenerate cases directly.
	for _, ds := range []*data.Dataset{
		{Name: "empty", Truth: map[string]string{}},
		{
			Name:    "single",
			Records: []data.Record{{Object: "o", Source: "s", Value: "v"}},
			Truth:   map[string]string{},
		},
	} {
		idx := data.NewIndex(ds)
		res := TruthFinder{}.Infer(idx)
		for _, o := range idx.Objects {
			if _, ok := res.Truths[o]; !ok {
				t.Fatalf("missing truth for %s", o)
			}
		}
	}
}
