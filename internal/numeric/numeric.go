// Package numeric implements the numeric truth-discovery algorithms of the
// paper's Table 6 — CRH (continuous loss), CATD, MEAN and VOTE — which are
// compared against TDH's implicit-hierarchy extension (internal/core) and
// the categorical baselines run on canonicalized numeric labels.
package numeric

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/data"
)

// Estimator is a numeric truth-discovery algorithm.
type Estimator interface {
	Name() string
	Estimate(records []data.Record) map[string]float64
	// Fit is Estimate plus the per-source weights its last truth step used;
	// weights is nil for the estimators that weigh every source alike (MEAN,
	// MEDIAN, VOTE).
	Fit(records []data.Record) (truth, weights map[string]float64)
	// Local re-estimates ONE object from its claims, in record order, each
	// carrying its source's weight frozen at the last Fit: the object-local
	// half of the algorithm, which is all of it for the weightless
	// estimators (Local over an object's claims ≡ Estimate's entry, bit for
	// bit) and the truth step of CRH / CATD. NaN when there are no claims.
	Local(claims []Claim) float64
}

// Claim is one parsed numeric claim on an object: the value, and the weight
// of the source that made it (ignored by the weightless estimators).
type Claim struct{ V, W float64 }

// table groups parsed numeric claims per object and per source.
type table struct {
	objects []string
	claims  map[string][]claim // object -> claims
	sources []string
	bySrc   map[string][]objVal
}

type claim struct {
	src string
	v   float64
}

type objVal struct {
	o string
	v float64
}

func buildTable(records []data.Record) *table {
	t := &table{claims: map[string][]claim{}, bySrc: map[string][]objVal{}}
	seenO := map[string]bool{}
	seenS := map[string]bool{}
	for _, r := range records {
		v, err := strconv.ParseFloat(r.Value, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		t.claims[r.Object] = append(t.claims[r.Object], claim{r.Source, v})
		t.bySrc[r.Source] = append(t.bySrc[r.Source], objVal{r.Object, v})
		if !seenO[r.Object] {
			seenO[r.Object] = true
			t.objects = append(t.objects, r.Object)
		}
		if !seenS[r.Source] {
			seenS[r.Source] = true
			t.sources = append(t.sources, r.Source)
		}
	}
	sort.Strings(t.objects)
	sort.Strings(t.sources)
	return t
}

// Mean is the averaging baseline MEAN — maximally sensitive to outliers.
type Mean struct{}

// Name implements Estimator.
func (Mean) Name() string { return "MEAN" }

// Estimate implements Estimator.
func (e Mean) Estimate(records []data.Record) map[string]float64 { return estimateLocally(e, records) }

// Fit implements Estimator.
func (e Mean) Fit(records []data.Record) (truth, weights map[string]float64) {
	return e.Estimate(records), nil
}

// Local implements Estimator.
func (Mean) Local(claims []Claim) float64 {
	s := 0.0
	for _, c := range claims {
		s += c.V
	}
	return s / float64(len(claims))
}

// estimateLocally is Estimate for the weightless estimators: every object's
// entry is Local over its claims.
func estimateLocally(e Estimator, records []data.Record) map[string]float64 {
	t := buildTable(records)
	out := make(map[string]float64, len(t.objects))
	var row []Claim
	for _, o := range t.objects {
		row = row[:0]
		for _, c := range t.claims[o] {
			row = append(row, Claim{V: c.v})
		}
		out[o] = e.Local(row)
	}
	return out
}

// Median is the robust midpoint baseline (not in Table 6 but a useful
// reference and an ingredient of CATD/CRH initialization).
type Median struct{}

// Name implements Estimator.
func (Median) Name() string { return "MEDIAN" }

// Estimate implements Estimator.
func (e Median) Estimate(records []data.Record) map[string]float64 {
	return estimateLocally(e, records)
}

// Fit implements Estimator.
func (e Median) Fit(records []data.Record) (truth, weights map[string]float64) {
	return e.Estimate(records), nil
}

// Local implements Estimator.
func (Median) Local(claims []Claim) float64 {
	vs := make([]float64, len(claims))
	for i, c := range claims {
		vs[i] = c.V
	}
	return medianOf(vs)
}

func median(cs []claim) float64 {
	vs := make([]float64, len(cs))
	for i, c := range cs {
		vs[i] = c.v
	}
	return medianOf(vs)
}

// medianOf sorts vs in place and returns its midpoint (NaN when empty).
func medianOf(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// Vote is majority vote on the exact claim strings: the most frequent
// claimed value wins; ties break toward the value closest to the median.
type Vote struct{}

// Name implements Estimator.
func (Vote) Name() string { return "VOTE" }

// Estimate implements Estimator.
func (e Vote) Estimate(records []data.Record) map[string]float64 { return estimateLocally(e, records) }

// Fit implements Estimator.
func (e Vote) Fit(records []data.Record) (truth, weights map[string]float64) {
	return e.Estimate(records), nil
}

// Local implements Estimator. Values are scanned in ascending order, so a
// tie on both count and distance to the median goes to the smaller value.
func (Vote) Local(claims []Claim) float64 {
	vs := make([]float64, len(claims))
	for i, c := range claims {
		vs[i] = c.V
	}
	med := medianOf(vs) // sorts vs
	best, bestN, bestD := math.NaN(), -1, math.Inf(1)
	for i := 0; i < len(vs); {
		j := i
		for j < len(vs) && vs[j] == vs[i] {
			j++
		}
		if n, d := j-i, math.Abs(vs[i]-med); n > bestN || (n == bestN && d < bestD) {
			best, bestN, bestD = vs[i], n, d
		}
		i = j
	}
	return best
}
