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
func (c CRH) Estimate(records []data.Record) map[string]float64 {
	truth, _ := c.Fit(records)
	return truth
}

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
func (c CRH) Fit(records []data.Record) (map[string]float64, map[string]float64) {
	if c.MaxIter == 0 {
		c.MaxIter = 20
	}
	t := buildTable(records)
	// Per-object normalizer: claim std (floored).
	norm := make(map[string]float64, len(t.objects))
	truth := make(map[string]float64, len(t.objects))
	for _, o := range t.objects {
		cs := t.claims[o]
		mean := 0.0
		for _, cl := range cs {
			mean += cl.v
		}
		mean /= float64(len(cs))
		va := 0.0
		for _, cl := range cs {
			va += (cl.v - mean) * (cl.v - mean)
		}
		sd := math.Sqrt(va / float64(len(cs)))
		if sd < 1e-9 {
			sd = 1e-9
		}
		norm[o] = sd
		truth[o] = median(cs) // robust start
	}
	w := make(map[string]float64, len(t.sources))
	for _, s := range t.sources {
		w[s] = 1
	}
	for iter := 0; iter < c.MaxIter; iter++ {
		// Weight step.
		loss := map[string]float64{}
		total := 0.0
		for _, s := range t.sources {
			for _, ov := range t.bySrc[s] {
				d := (ov.v - truth[ov.o]) / norm[ov.o]
				l := d * d
				if l > 1e6 {
					l = 1e6 // clip wild outliers so one claim cannot zero a source
				}
				loss[s] += l
				total += l
			}
		}
		if total <= 0 {
			total = 1
		}
		for _, s := range t.sources {
			share := (loss[s] + 1e-9) / (total + 1e-9*float64(len(t.sources)))
			w[s] = -math.Log(share)
			if w[s] < 1e-6 {
				w[s] = 1e-6
			}
		}
		// Truth step: weighted mean.
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
