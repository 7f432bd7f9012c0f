package multitruth

import (
	"math"
	"math/rand"

	"repro/internal/data"
)

// LTM implements the Latent Truth Model (Zhao, Rubinstein, Gemmell, Han,
// PVLDB 2012): every (object, value) pair carries a latent boolean truth
// label; every source has two quality signals — specificity (true negative
// rate) and sensitivity (recall) — with Beta priors; inference is collapsed
// Gibbs sampling over the truth labels.
//
// A source "claims" (o,v) positively if it asserted v for o and negatively
// if it asserted some other value for o (the standard closed-world reading
// used for single-valued attributes).
type LTM struct {
	// Gibbs controls: default 100 burn-in plus 100 samples.
	BurnIn, Samples int
	Seed            int64
	// Beta priors: (a1,b1) for sensitivity, (a0,b0) for specificity, and
	// (at,bt) for the per-pair truth prior. Defaults follow the LTM paper:
	// sensitivity prior is weak and balanced, specificity prior strongly
	// favors high specificity, truth prior is mildly negative.
	A1, B1, A0, B0, AT, BT float64
}

// Name implements Discoverer.
func (LTM) Name() string { return "LTM" }

func (l LTM) withDefaults() LTM {
	if l.BurnIn == 0 {
		l.BurnIn = 100
	}
	if l.Samples == 0 {
		l.Samples = 100
	}
	if l.A1 == 0 {
		l.A1, l.B1 = 5, 5
	}
	if l.A0 == 0 {
		l.A0, l.B0 = 9, 1
	}
	if l.AT == 0 {
		l.AT, l.BT = 1, 2
	}
	return l
}

// Discover implements Discoverer.
func (l LTM) Discover(idx *data.Index) map[string][]string {
	l = l.withDefaults()
	rng := rand.New(rand.NewSource(l.Seed + 606))

	// Flatten (object, value) pairs and per-source positive/negative
	// observation lists.
	type pair struct {
		o string
		v int
	}
	var pairs []pair
	pairIdx := map[pair]int{}
	type obs struct {
		src string
		pos bool
	}
	var observations [][]obs // per pair
	for _, o := range idx.Objects {
		ov := idx.View(o)
		providers, claims := claimersOf(idx, ov, true)
		for v := 0; v < ov.CI.NumValues(); v++ {
			p := pair{o, v}
			pairIdx[p] = len(pairs)
			pairs = append(pairs, p)
			var os []obs
			for pi, prov := range providers {
				os = append(os, obs{prov, claims[pi][v]})
			}
			observations = append(observations, os)
		}
	}
	// Truth labels and per-source contingency counts
	// n[src][t][c]: t = latent truth (0/1), c = claimed (0/1).
	t := make([]bool, len(pairs))
	type counts [2][2]float64
	n := map[string]*counts{}
	bump := func(src string, truth bool, claimed bool, d float64) {
		c := n[src]
		if c == nil {
			c = &counts{}
			n[src] = c
		}
		ti, ci := 0, 0
		if truth {
			ti = 1
		}
		if claimed {
			ci = 1
		}
		c[ti][ci] += d
	}
	for i := range pairs {
		t[i] = rng.Float64() < 0.5
		for _, ob := range observations[i] {
			bump(ob.src, t[i], ob.pos, 1)
		}
	}
	votes := make([]float64, len(pairs))
	for sweep := 0; sweep < l.BurnIn+l.Samples; sweep++ {
		for i := range pairs {
			// Remove pair i from the counts.
			for _, ob := range observations[i] {
				bump(ob.src, t[i], ob.pos, -1)
			}
			// Collapsed conditional: P(t_i = 1 | rest) ∝ prior × Π_src
			// Beta-posterior predictive of the observation.
			lp1 := math.Log(l.AT / (l.AT + l.BT))
			lp0 := math.Log(l.BT / (l.AT + l.BT))
			for _, ob := range observations[i] {
				c := n[ob.src]
				var c10, c11, c00, c01 float64
				if c != nil {
					c10, c11 = c[1][0], c[1][1]
					c00, c01 = c[0][0], c[0][1]
				}
				// truth=1: claimed follows sensitivity Beta(a1,b1).
				if ob.pos {
					lp1 += math.Log((c11 + l.A1) / (c11 + c10 + l.A1 + l.B1))
				} else {
					lp1 += math.Log((c10 + l.B1) / (c11 + c10 + l.A1 + l.B1))
				}
				// truth=0: claimed follows 1-specificity Beta(b0,a0).
				if ob.pos {
					lp0 += math.Log((c01 + l.B0) / (c01 + c00 + l.A0 + l.B0))
				} else {
					lp0 += math.Log((c00 + l.A0) / (c01 + c00 + l.A0 + l.B0))
				}
			}
			mx := math.Max(lp0, lp1)
			p1 := math.Exp(lp1-mx) / (math.Exp(lp0-mx) + math.Exp(lp1-mx))
			t[i] = rng.Float64() < p1
			for _, ob := range observations[i] {
				bump(ob.src, t[i], ob.pos, 1)
			}
			if sweep >= l.BurnIn && t[i] {
				votes[i]++
			}
		}
	}
	out := map[string][]string{}
	for i, p := range pairs {
		if votes[i]/float64(l.Samples) > 0.5 {
			ov := idx.View(p.o)
			out[p.o] = append(out[p.o], ov.CI.Values[p.v])
		}
	}
	// Objects where nothing crossed 0.5 still need an answer: emit the
	// pair with the most votes.
	byObj := map[string][2]float64{} // best vote, tracked separately
	bestVal := map[string]string{}
	for i, p := range pairs {
		if len(out[p.o]) > 0 {
			continue
		}
		b := byObj[p.o]
		if votes[i] >= b[0] {
			byObj[p.o] = [2]float64{votes[i], 0}
			bestVal[p.o] = idx.View(p.o).CI.Values[p.v]
		}
	}
	for o, v := range bestVal {
		if len(out[o]) == 0 {
			out[o] = []string{v}
		}
	}
	return out
}
