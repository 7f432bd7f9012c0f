package numeric

import (
	"math"

	"repro/internal/data"
)

// CATD implements the confidence-aware approach of Li et al. (PVLDB 2014)
// for long-tail data: source weights are the upper bound of the chi-squared
// confidence interval of their error variance,
//
//	w_s = χ²(α/2, |O_s|) / Σ_o (v_{s,o} - truth_o)²
//
// so sources with few claims get conservative (small) weights; truths are
// weight-averaged; iterate. α = 0.05 as in the paper.
type CATD struct {
	MaxIter int     // default 20
	Alpha   float64 // default 0.05
}

// Name implements Estimator.
func (CATD) Name() string { return "CATD" }

// Estimate implements Estimator.
func (c CATD) Estimate(records []data.Record) map[string]float64 { return estimate(c, records) }

// Local implements Estimator: the truth step for one object.
func (CATD) Local(claims []Claim) float64 { return weightedMean(claims) }

// Fit implements Estimator.
func (c CATD) Fit(t *Table) (truth, weights []float64) {
	if c.MaxIter == 0 {
		c.MaxIter = 20
	}
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	truth = medianStart(t)
	// The chi-squared numerator depends only on a provider's claim count.
	chi := make([]float64, len(t.Providers()))
	for p := range chi {
		chi[p] = ChiSquaredQuantile(c.Alpha/2, float64(len(t.Provider(p))))
	}
	w := make([]float64, len(chi))
	for iter := 0; iter < c.MaxIter; iter++ {
		for p := range w {
			// Raw (unnormalized) squared errors, as in CATD: this is what
			// makes the weighted average sensitive to outliers — the
			// behaviour the paper's Table 6 discussion calls out.
			sse := 0.0
			for _, ov := range t.Provider(p) {
				d := ov.V - truth[ov.ID]
				sse += d * d
			}
			if sse < 1e-12 {
				sse = 1e-12
			}
			w[p] = chi[p] / sse
		}
		if truthStep(t, w, truth) < 1e-9 {
			break
		}
	}
	return truth, w
}

// ChiSquaredQuantile returns the p-quantile of the chi-squared distribution
// with k degrees of freedom, dependency-free (stdlib only). One and two
// degrees of freedom — a CATD provider with one or two claims — have exact
// forms: χ²₁ is a squared standard normal and χ²₂ an exponential with mean
// 2. Above that, the Wilson–Hilferty approximation. At CATD's p = 0.025 it
// reads 16 % low at k = 3, 4 % at k = 5 and under 1 % from k = 10, and it
// is positive for every k ≥ 3; at k = 1 its cube goes negative, which gave
// a one-claim provider a negative weight.
func ChiSquaredQuantile(p, k float64) float64 {
	switch {
	case k <= 0:
		return 0
	case k == 1:
		z := normalQuantile((1 + p) / 2)
		return z * z
	case k == 2:
		return -2 * math.Log1p(-p)
	}
	z := normalQuantile(p)
	a := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * a * a * a
}

// normalQuantile is the Acklam rational approximation of the standard
// normal inverse CDF (max abs error ≈ 1e-9).
func normalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	cc := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((cc[0]*q+cc[1])*q+cc[2])*q+cc[3])*q+cc[4])*q + cc[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((cc[0]*q+cc[1])*q+cc[2])*q+cc[3])*q+cc[4])*q + cc[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
