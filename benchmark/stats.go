package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q < 1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified.
// Empty input reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// typical is the mean of xs without its slowest tenth (0 for none). It is
// how a run sums up the repeats of one fixed piece of work — a set-up, a
// restart, a forced refresh. The reference sandbox is a few cores of a shared
// host that runs the same code at one of two speeds, about 1 : 1.6, and
// switches between them every few tenths of a second to every few minutes. The
// median of a run's repeats therefore jumps by half whenever the slow share
// crosses one half, and the fastest repeat does whenever the host was not
// quiet once; the mean moves in proportion to the slow share and never jumps.
// Dropping the slowest tenth keeps one stall (a page-cache miss, a stop the
// world) from moving it.
func typical(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[:len(s)-len(s)/10])
}

// geoMean is the geometric mean of positive values (0 for none): the mean
// that weighs a relative change the same whatever the value's size.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentileLadder are the percentiles a latency may be reported at, lowest
// first, in per mille (integers, so the samples-beyond count is exact).
var percentileLadder = []int{500, 750, 900, 950, 990, 999}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// maxPercentile returns the highest ladder percentile that still has at
// least minBeyond of n samples beyond it, or 0 when even the median does not.
func maxPercentile(n int) float64 {
	best := 0.0
	for _, pm := range percentileLadder {
		if n*(1000-pm) >= minBeyond*1000 {
			best = float64(pm) / 1000
		}
	}
	return best
}

// supported returns quantile(xs, q) when q has minBeyond samples beyond it,
// and otherwise the highest percentile that does (0 for fewer than 20
// samples): a p95 over 40 requests would be the second-slowest request.
func supported(xs []float64, q float64) float64 {
	if top := maxPercentile(len(xs)); top < q {
		q = top
	}
	if q == 0 {
		return 0
	}
	return quantile(xs, q)
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the acceptance driver computes spreads
// with. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median, the
// run-to-run steadiness figure bounds are derived from.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
