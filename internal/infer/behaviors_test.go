package infer

import (
	"testing"

	"repro/internal/data"
)

// Per-algorithm behavioural tests: each exercises the specific mechanism
// that distinguishes the algorithm from plain voting.

// TestPopAccuDiscountsPopularFalsehoods: POPACCU's defining behaviour — a
// value that is popular among FALSE claims earns weaker votes than an
// equally-voted rare value. Construct: on the probe, value A and B tie 2-2,
// but A is a chronic wrong answer across the corpus while B is not.
func TestPopAccuDiscountsPopularFalsehoods(t *testing.T) {
	ds := &data.Dataset{Name: "pa", Truth: map[string]string{}, H: geoTree(t)}
	// Corpus: LA is the perennial wrong value; NY wins everywhere.
	for i := 0; i < 8; i++ {
		o := "bg" + string(rune('0'+i))
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "g1", Value: "NY"},
			data.Record{Object: o, Source: "g2", Value: "NY"},
			data.Record{Object: o, Source: "g3", Value: "NY"},
			data.Record{Object: o, Source: "b1", Value: "LA"},
			data.Record{Object: o, Source: "b2", Value: "LA"},
		)
	}
	// Probe: LA vs London 2-2, with one vote each from a good and bad source.
	ds.Records = append(ds.Records,
		data.Record{Object: "probe", Source: "b1", Value: "LA"},
		data.Record{Object: "probe", Source: "b2", Value: "LA"},
		data.Record{Object: "probe", Source: "g1", Value: "London"},
		data.Record{Object: "probe", Source: "g2", Value: "London"},
	)
	res := PopAccu{}.Infer(data.NewIndex(ds))
	if res.Truths["probe"] != "London" {
		t.Fatalf("probe = %q, want London (LA is a popular falsehood claimed by distrusted sources)", res.Truths["probe"])
	}
}

// TestCRHWeightsConvergeToAccuracy: CRH's weights must rank sources by
// their (0-1 loss) accuracy against the consensus.
func TestCRHWeightsConvergeToAccuracy(t *testing.T) {
	ds := &data.Dataset{Name: "crh", Truth: map[string]string{}, H: geoTree(t)}
	for i := 0; i < 9; i++ {
		o := "o" + string(rune('0'+i))
		perfect := "NY"
		mediocre := "NY"
		if i%3 == 0 {
			mediocre = "LA"
		}
		awful := "LA"
		if i%3 == 1 {
			awful = "Manchester"
		}
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "perfect", Value: perfect},
			data.Record{Object: o, Source: "mediocre", Value: mediocre},
			data.Record{Object: o, Source: "extra", Value: "NY"},
			data.Record{Object: o, Source: "extra2", Value: "NY"}, // break initial ties
			data.Record{Object: o, Source: "awful", Value: awful},
		)
	}
	res := CRH{}.Infer(data.NewIndex(ds))
	if !(res.SourceTrust["perfect"] > res.SourceTrust["mediocre"] &&
		res.SourceTrust["mediocre"] > res.SourceTrust["awful"]) {
		t.Fatalf("trust ordering wrong: perfect=%v mediocre=%v awful=%v",
			res.SourceTrust["perfect"], res.SourceTrust["mediocre"], res.SourceTrust["awful"])
	}
}

// TestMDCKinshipSmoothing: MDC's similarity kernel treats hierarchically
// related wrong answers as near-misses. A provider that consistently
// answers with the parent of the truth should retain more reliability than
// one answering unrelated values.
func TestMDCKinshipSmoothing(t *testing.T) {
	ds := &data.Dataset{Name: "mdc", Truth: map[string]string{}, H: geoTree(t)}
	for i := 0; i < 6; i++ {
		o := "o" + string(rune('0'+i))
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "exact1", Value: "LibertyIsland"},
			data.Record{Object: o, Source: "exact2", Value: "LibertyIsland"},
			data.Record{Object: o, Source: "parent", Value: "NY"},        // related miss
			data.Record{Object: o, Source: "unrelated", Value: "London"}, // unrelated miss
		)
	}
	res := MDC{}.Infer(data.NewIndex(ds))
	for o := range map[string]bool{"o0": true} {
		if res.Truths[o] != "LibertyIsland" {
			t.Fatalf("%s = %q", o, res.Truths[o])
		}
	}
	if res.SourceTrust["exact1"] <= res.SourceTrust["parent"] {
		t.Fatal("exact sources must out-trust the generalizer")
	}
}

// TestLCAGuessDistribution: GuessLCA's guess model follows claim
// popularity; SimpleLCA's is uniform. On an object whose wrong claims
// concentrate, the two must differ in confidence mass even when they agree
// on the winner.
func TestLCAGuessDistribution(t *testing.T) {
	ds := &data.Dataset{Name: "lca", Truth: map[string]string{}, H: geoTree(t)}
	// Skewed claim popularity (4-1-1) makes the guess distribution very
	// non-uniform, which is exactly where the two models separate.
	for i := 0; i < 6; i++ {
		o := "o" + string(rune('0'+i))
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "a", Value: "NY"},
			data.Record{Object: o, Source: "b", Value: "NY"},
			data.Record{Object: o, Source: "c", Value: "NY"},
			data.Record{Object: o, Source: "d", Value: "NY"},
			data.Record{Object: o, Source: "e", Value: "LA"},
			data.Record{Object: o, Source: "f", Value: "London"},
		)
	}
	idx := data.NewIndex(ds)
	guess := LCA{}.Infer(idx)
	uniform := SimpleLCA{}.Infer(idx)
	maxDiff := 0.0
	for oid := range idx.Objects {
		g, u := guess.ConfidenceAt(oid), uniform.ConfidenceAt(oid)
		for i := range g {
			d := g[i] - u[i]
			if d < 0 {
				d = -d
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	for s2 := range guess.SourceTrust {
		d := guess.SourceTrust[s2] - uniform.SourceTrust[s2]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff < 0.005 {
		t.Fatalf("GuessLCA and SimpleLCA should differ somewhere (max diff %v)", maxDiff)
	}
}

// TestAccuVoteCountScaling: with uniform false values, ACCU's vote weight
// ln(n·A/(1-A)) grows with source accuracy — higher-trust sources must
// dominate equal-count conflicts.
func TestAccuVoteCountScaling(t *testing.T) {
	ds := reliableVsNoisy(t)
	res := Accu{}.Infer(data.NewIndex(ds))
	// The probe has one good and one bad claim; ACCU must follow good.
	if res.Truths["probe"] != "London" {
		t.Fatalf("probe = %q", res.Truths["probe"])
	}
	// And confidence for London must be clearly above half — read through
	// a second index of the same dataset, which maps by object name.
	idx := data.NewIndex(ds)
	ov := idx.View("probe")
	if conf := res.ConfidenceAt(ov.ID); conf[candPos(ov.CI, "London")] < 0.6 {
		t.Fatalf("probe confidence too timid: %v", conf)
	}
}

// TestDOCSFallbackDomain: objects without a domain label share the "~"
// domain and still get sensible inference.
func TestDOCSFallbackDomain(t *testing.T) {
	ds := reliableVsNoisy(t)
	ds.Domains = nil // strip domains entirely
	res := DOCS{}.Infer(data.NewIndex(ds))
	if res.Truths["probe"] != "London" {
		t.Fatalf("probe = %q", res.Truths["probe"])
	}
}

// TestTDHWorkerPopularityFollowsSources: with popularity mixing on, a
// worker who repeats the sources' dominant wrong value is judged less
// harshly than one inventing rare values — the dependency the paper bakes
// into Eqs. (3)-(4).
func TestTDHWorkerPopularityFollowsSources(t *testing.T) {
	ds := reliableVsNoisy(t)
	// Two workers, same number of wrong answers: follower repeats the
	// sources' popular wrong value (LA), loner picks the rare one.
	for _, o := range []string{"o1", "o2", "o3", "o4"} {
		ds.Records = append(ds.Records, data.Record{Object: o, Source: "rare", Value: "Manchester"})
		ds.Answers = append(ds.Answers,
			data.Answer{Object: o, Worker: "follower", Value: "LA"},
			data.Answer{Object: o, Worker: "loner", Value: "Manchester"},
		)
	}
	res := NewTDH().Infer(data.NewIndex(ds))
	// Both are always wrong; their ψ1 should be low either way, but the
	// model must remain well-behaved and assign both a trust value.
	if _, ok := res.WorkerTrust["follower"]; !ok {
		t.Fatal("missing follower trust")
	}
	if _, ok := res.WorkerTrust["loner"]; !ok {
		t.Fatal("missing loner trust")
	}
	if res.WorkerTrust["follower"] > 0.6 || res.WorkerTrust["loner"] > 0.6 {
		t.Fatalf("always-wrong workers must not look reliable: follower=%v loner=%v",
			res.WorkerTrust["follower"], res.WorkerTrust["loner"])
	}
}
