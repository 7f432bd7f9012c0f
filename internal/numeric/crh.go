package numeric

import (
	"math"

	"repro/internal/data"
)

// CRH implements the continuous branch of Li et al. (SIGMOD 2014): iterate
// weighted truths and source weights under the normalized squared loss.
//
//	truth_o = Σ_s w_s·v_{s,o} / Σ_s w_s
//	w_s     = -log( Σ_o loss(s,o) / Σ_s' Σ_o loss(s',o) )
//
// where loss is the squared deviation normalized by the per-object claim
// standard deviation (so attributes and objects with different scales mix).
type CRH struct {
	MaxIter int // default 20
}

// Name implements Estimator.
func (CRH) Name() string { return "CRH" }

// Estimate implements Estimator.
func (c CRH) Estimate(records []data.Record) map[string]float64 { return estimate(c, records) }

// Local implements Estimator: the truth step for one object.
func (CRH) Local(claims []Claim) float64 { return weightedMean(claims) }

// weightedMean is the CRH / CATD truth step for one object under frozen
// source weights; like the step inside Fit, an object whose weights do not
// sum positive keeps its starting point, the median.
func weightedMean(claims []Claim) float64 {
	num, den := 0.0, 0.0
	for _, cl := range claims {
		num += cl.W * cl.V
		den += cl.W
	}
	if den > 0 {
		return num / den
	}
	return Median{}.Local(claims)
}

// Fit implements Estimator.
func (c CRH) Fit(t *Table) (truth, weights []float64) {
	if c.MaxIter == 0 {
		c.MaxIter = 20
	}
	// Per-object normalizer: claim std (floored).
	norm := make([]float64, t.Objects())
	truth = medianStart(t)
	for oid := range norm {
		cs := t.Object(oid)
		if len(cs) == 0 {
			continue
		}
		mean := 0.0
		for _, cl := range cs {
			mean += cl.V
		}
		mean /= float64(len(cs))
		va := 0.0
		for _, cl := range cs {
			va += (cl.V - mean) * (cl.V - mean)
		}
		sd := math.Sqrt(va / float64(len(cs)))
		if sd < 1e-9 {
			sd = 1e-9
		}
		norm[oid] = sd
	}
	np := len(t.Providers())
	w := make([]float64, np)
	for p := range w {
		w[p] = 1
	}
	loss := make([]float64, np)
	for iter := 0; iter < c.MaxIter; iter++ {
		// Weight step.
		total := 0.0
		for p := range loss {
			sum := 0.0
			for _, ov := range t.Provider(p) {
				d := (ov.V - truth[ov.ID]) / norm[ov.ID]
				l := d * d
				if l > 1e6 {
					l = 1e6 // clip wild outliers so one claim cannot zero a source
				}
				sum += l
				total += l
			}
			loss[p] = sum
		}
		if total <= 0 {
			total = 1
		}
		for p := range w {
			share := (loss[p] + 1e-9) / (total + 1e-9*float64(np))
			w[p] = -math.Log(share)
			if w[p] < 1e-6 {
				w[p] = 1e-6
			}
		}
		if truthStep(t, w, truth) < 1e-9 {
			break
		}
	}
	return truth, w
}

// medianStart is the robust starting point of CRH and CATD: every object's
// claim median (NaN for an object with no claim).
func medianStart(t *Table) []float64 {
	truth := make([]float64, t.Objects())
	var buf []float64
	for oid := range truth {
		truth[oid] = medianRow(t.Object(oid), &buf)
	}
	return truth
}

// truthStep is the CRH / CATD truth step: every object whose weights sum
// positive moves to its claims' weighted mean. It returns the largest move.
func truthStep(t *Table, w, truth []float64) float64 {
	maxDelta := 0.0
	for oid := range truth {
		num, den := 0.0, 0.0
		for _, cl := range t.Object(oid) {
			num += w[cl.ID] * cl.V
			den += w[cl.ID]
		}
		if den > 0 {
			nt := num / den
			if d := math.Abs(nt - truth[oid]); d > maxDelta {
				maxDelta = d
			}
			truth[oid] = nt
		}
	}
	return maxDelta
}
