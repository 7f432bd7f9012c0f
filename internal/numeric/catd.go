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
func (c CATD) Estimate(records []data.Record) map[string]float64 {
	truth, _ := c.Fit(records)
	return truth
}

// Local implements Estimator: the truth step for one object.
func (CATD) Local(claims []Claim) float64 { return weightedMean(claims) }

// Fit implements Estimator.
func (c CATD) Fit(records []data.Record) (map[string]float64, map[string]float64) {
	if c.MaxIter == 0 {
		c.MaxIter = 20
	}
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	t := buildTable(records)
	truth := make(map[string]float64, len(t.objects))
	for _, o := range t.objects {
		truth[o] = median(t.claims[o])
	}
	w := map[string]float64{}
	for iter := 0; iter < c.MaxIter; iter++ {
		for _, s := range t.sources {
			// Raw (unnormalized) squared errors, as in CATD: this is what
			// makes the weighted average sensitive to outliers — the
			// behaviour the paper's Table 6 discussion calls out.
			sse := 0.0
			for _, ov := range t.bySrc[s] {
				d := ov.v - truth[ov.o]
				sse += d * d
			}
			if sse < 1e-12 {
				sse = 1e-12
			}
			w[s] = ChiSquaredQuantile(c.Alpha/2, float64(len(t.bySrc[s]))) / sse
		}
		maxDelta := 0.0
		for _, o := range t.objects {
			num, den := 0.0, 0.0
			for _, cl := range t.claims[o] {
				num += w[cl.src] * cl.v
				den += w[cl.src]
			}
			if den > 0 {
				nt := num / den
				if d := math.Abs(nt - truth[o]); d > maxDelta {
					maxDelta = d
				}
				truth[o] = nt
			}
		}
		if maxDelta < 1e-9 {
			break
		}
	}
	return truth, w
}

// ChiSquaredQuantile returns the p-quantile of the chi-squared distribution
// with k degrees of freedom via the Wilson–Hilferty approximation — enough
// accuracy for CATD's weighting and dependency-free (stdlib only).
func ChiSquaredQuantile(p, k float64) float64 {
	if k <= 0 {
		return 0
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
