// Package numeric implements the numeric truth-discovery algorithms of the
// paper's Table 6 — CRH (continuous loss), CATD, MEAN and VOTE — which are
// compared against TDH's implicit-hierarchy extension (internal/core) and
// the categorical baselines run on canonicalized numeric labels.
package numeric

import (
	"math"
	"sort"

	"repro/internal/data"
)

// Estimator is a numeric truth-discovery algorithm.
type Estimator interface {
	Name() string
	// Estimate is Fit over name-keyed records: the estimate of every object
	// with a parsable claim.
	Estimate(records []data.Record) map[string]float64
	// Fit estimates every object of t — truth[oid], NaN for an object with no
	// claim — and returns the per-provider weights (by t's provider ID) its
	// last truth step used; weights is nil for the estimators that weigh
	// every provider alike (MEAN, MEDIAN, VOTE).
	Fit(t *Table) (truth, weights []float64)
	// Local re-estimates ONE object from its claims, in table order, each
	// carrying its provider's weight frozen at the last Fit: the object-local
	// half of the algorithm, which is all of it for the weightless
	// estimators (Local over an object's claims ≡ Fit's entry, bit for bit)
	// and the truth step of CRH / CATD. NaN when there are no claims.
	Local(claims []Claim) float64
}

// Claim is one parsed numeric claim on an object: the value, and the weight
// of the source that made it (ignored by the weightless estimators).
type Claim struct{ V, W float64 }

// Mean is the averaging baseline MEAN — maximally sensitive to outliers.
type Mean struct{}

// Name implements Estimator.
func (Mean) Name() string { return "MEAN" }

// Estimate implements Estimator.
func (e Mean) Estimate(records []data.Record) map[string]float64 { return estimate(e, records) }

// Fit implements Estimator.
func (e Mean) Fit(t *Table) (truth, weights []float64) { return fitLocally(e, t), nil }

// Local implements Estimator.
func (Mean) Local(claims []Claim) float64 {
	s := 0.0
	for _, c := range claims {
		s += c.V
	}
	return s / float64(len(claims))
}

// fitLocally is Fit for the weightless estimators: every claimed object's
// truth is Local over its claims.
func fitLocally(e Estimator, t *Table) []float64 {
	truth := make([]float64, t.Objects())
	var row []Claim
	for oid := range truth {
		cells := t.Object(oid)
		if len(cells) == 0 {
			truth[oid] = math.NaN()
			continue
		}
		row = row[:0]
		for _, c := range cells {
			row = append(row, Claim{V: c.V})
		}
		truth[oid] = e.Local(row)
	}
	return truth
}

// Median is the robust midpoint baseline (not in Table 6 but a useful
// reference and an ingredient of CATD/CRH initialization).
type Median struct{}

// Name implements Estimator.
func (Median) Name() string { return "MEDIAN" }

// Estimate implements Estimator.
func (e Median) Estimate(records []data.Record) map[string]float64 { return estimate(e, records) }

// Fit implements Estimator.
func (e Median) Fit(t *Table) (truth, weights []float64) { return fitLocally(e, t), nil }

// Local implements Estimator.
func (Median) Local(claims []Claim) float64 {
	vs := make([]float64, len(claims))
	for i, c := range claims {
		vs[i] = c.V
	}
	return medianOf(vs)
}

// medianRow is the median of a row's values, sorted in buf (reused).
func medianRow(cells []Cell, buf *[]float64) float64 {
	vs := (*buf)[:0]
	for _, c := range cells {
		vs = append(vs, c.V)
	}
	*buf = vs
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
func (e Vote) Estimate(records []data.Record) map[string]float64 { return estimate(e, records) }

// Fit implements Estimator.
func (e Vote) Fit(t *Table) (truth, weights []float64) { return fitLocally(e, t), nil }

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
