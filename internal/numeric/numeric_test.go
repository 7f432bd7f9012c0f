package numeric

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/synth"
)

func simpleRecords() []data.Record {
	return []data.Record{
		{Object: "a", Source: "s1", Value: "10"},
		{Object: "a", Source: "s2", Value: "10"},
		{Object: "a", Source: "s3", Value: "13"},
		{Object: "b", Source: "s1", Value: "100"},
		{Object: "b", Source: "s2", Value: "100"},
		{Object: "b", Source: "s3", Value: "100"},
	}
}

func TestMean(t *testing.T) {
	est := Mean{}.Estimate(simpleRecords())
	if math.Abs(est["a"]-11) > 1e-12 {
		t.Fatalf("mean(a) = %v", est["a"])
	}
	if math.Abs(est["b"]-100) > 1e-12 {
		t.Fatalf("mean(b) = %v", est["b"])
	}
}

func TestMedian(t *testing.T) {
	est := Median{}.Estimate(simpleRecords())
	if est["a"] != 10 {
		t.Fatalf("median(a) = %v", est["a"])
	}
	// Even count.
	recs := []data.Record{
		{Object: "x", Source: "s1", Value: "1"},
		{Object: "x", Source: "s2", Value: "3"},
	}
	evenMed := Median{}.Estimate(recs)["x"]
	if evenMed != 2 {
		t.Fatalf("even median = %v", evenMed)
	}
}

func TestVoteNumeric(t *testing.T) {
	est := Vote{}.Estimate(simpleRecords())
	if est["a"] != 10 {
		t.Fatalf("vote(a) = %v", est["a"])
	}
	// Tie: closest to the median wins.
	recs := []data.Record{
		{Object: "x", Source: "s1", Value: "1"},
		{Object: "x", Source: "s2", Value: "10"},
		{Object: "x", Source: "s3", Value: "11"},
	}
	got := Vote{}.Estimate(recs)["x"]
	if got != 10 && got != 11 {
		t.Fatalf("tie-break = %v, want near-median value", got)
	}
}

func TestNonNumericSkipped(t *testing.T) {
	recs := []data.Record{
		{Object: "a", Source: "s1", Value: "junk"},
		{Object: "a", Source: "s2", Value: "5"},
	}
	est := Mean{}.Estimate(recs)
	if est["a"] != 5 {
		t.Fatalf("non-numeric must be skipped: %v", est["a"])
	}
}

func TestCRHDownweightsBadSource(t *testing.T) {
	// Source "bad" is consistently off; CRH must learn a low weight and
	// land near the consensus.
	var recs []data.Record
	for i := 0; i < 10; i++ {
		o := "o" + string(rune('0'+i))
		truth := float64(10 + i)
		recs = append(recs,
			data.Record{Object: o, Source: "g1", Value: fmtF(truth)},
			data.Record{Object: o, Source: "g2", Value: fmtF(truth + 0.1)},
			data.Record{Object: o, Source: "bad", Value: fmtF(truth * 3)},
		)
	}
	est := CRH{}.Estimate(recs)
	for i := 0; i < 10; i++ {
		o := "o" + string(rune('0'+i))
		truth := float64(10 + i)
		if math.Abs(est[o]-truth) > 1.0 {
			t.Fatalf("CRH %s = %v, want ≈%v", o, est[o], truth)
		}
	}
}

func TestCATDConservativeOnSmallSources(t *testing.T) {
	// CATD's chi-squared weighting must not let a tiny source with zero
	// observed error dominate a large accurate source.
	var recs []data.Record
	for i := 0; i < 20; i++ {
		o := "o" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		recs = append(recs,
			data.Record{Object: o, Source: "big1", Value: "50"},
			data.Record{Object: o, Source: "big2", Value: "50"},
		)
	}
	recs = append(recs, data.Record{Object: "oa0", Source: "tiny", Value: "80"})
	est := CATD{}.Estimate(recs)
	if math.Abs(est["oa0"]-50) > 10 {
		t.Fatalf("CATD = %v, want ≈50 (tiny source must stay conservative)", est["oa0"])
	}
}

func TestChiSquaredQuantile(t *testing.T) {
	// Reference values (R: qchisq(p, df)). One and two degrees of freedom
	// are exact; above them Wilson–Hilferty is within 1 % here.
	cases := []struct {
		p, k, want, rel float64
	}{
		{0.025, 1, 0.0009820691, 1e-6},
		{0.5, 1, 0.4549364, 1e-6},
		{0.975, 1, 5.023886, 1e-6},
		{0.025, 2, 0.05063562, 1e-6},
		{0.975, 2, 7.377759, 1e-6},
		{0.025, 10, 3.246973, 0.01},
		{0.975, 10, 20.48318, 0.01},
		{0.95, 5, 11.07050, 0.01},
		{0.025, 20, 9.590777, 0.01},
	}
	for _, c := range cases {
		if got := ChiSquaredQuantile(c.p, c.k); math.Abs(got-c.want) > c.rel*c.want {
			t.Errorf("chi2(%v, %v) = %v, want %v within %v relative", c.p, c.k, got, c.want, c.rel)
		}
	}
	// A CATD weight is this quantile over a squared error: it must be
	// positive for every claim count, or a provider pushes an estimate away
	// from its claims.
	for _, p := range []float64{0.005, 0.025, 0.5, 0.975} {
		for k := 1.0; k <= 100; k++ {
			if got := ChiSquaredQuantile(p, k); !(got > 0) {
				t.Fatalf("chi2(%v, %v) = %v, want > 0", p, k, got)
			}
		}
	}
	if got := ChiSquaredQuantile(0.5, 0); got != 0 {
		t.Fatalf("df=0 must yield 0, got %v", got)
	}
}

// TestCATDWeightsPositive: every CATD weight is positive, a provider with
// one or two claims included, so no provider pushes an estimate away from
// its own claims.
func TestCATDWeightsPositive(t *testing.T) {
	b := NewTableBuilder(0, 0)
	for i := 0; i < 10; i++ {
		b.Add(i, "big1", float64(50+i))
		b.Add(i, "big2", float64(51+i))
	}
	b.Add(0, "one", 80)
	b.Add(1, "two", 70)
	b.Add(2, "two", 40)
	tab := b.Table()
	_, w := CATD{}.Fit(tab)
	for p, name := range tab.Providers() {
		if !(w[p] > 0) {
			t.Errorf("CATD weight of %s (%d claims) = %v, want > 0", name, len(tab.Provider(p)), w[p])
		}
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.84134, 1.0},
	}
	for _, c := range cases {
		if got := normalQuantile(c.p); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("normalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(normalQuantile(0), -1) || !math.IsInf(normalQuantile(1), 1) {
		t.Fatal("boundary quantiles must be infinite")
	}
}

// TestQuickNormalQuantileMonotone: the inverse CDF must be monotone.
func TestQuickNormalQuantileMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		pa := math.Mod(math.Abs(a), 1)
		pb := math.Mod(math.Abs(b), 1)
		if pa == 0 || pb == 0 || pa == pb {
			return true
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		return normalQuantile(pa) <= normalQuantile(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTable6Shape: on the stock-like workload the robust estimators (CRH,
// CATD, VOTE) must all beat MEAN, which the outlier sources wreck.
func TestTable6Shape(t *testing.T) {
	attrs := synth.Stock(synth.StockConfig{Seed: 5, Symbols: 80, Sources: 30})
	for _, a := range attrs {
		meanRE := eval.EvaluateNumeric(a.Gold, Mean{}.Estimate(a.Records)).RE
		for _, est := range []Estimator{CRH{}, CATD{}, Vote{}, Median{}} {
			re := eval.EvaluateNumeric(a.Gold, est.Estimate(a.Records)).RE
			if re >= meanRE {
				t.Errorf("%s on %s: RE %v should beat MEAN %v", est.Name(), a.Name, re, meanRE)
			}
		}
	}
}

func fmtF(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64)
}
