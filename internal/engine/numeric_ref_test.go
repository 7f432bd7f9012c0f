package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/data"
	"repro/internal/numeric"
	"repro/internal/synth"
)

// The numeric fit as it was defined before the dense numeric.Table, kept as
// the reference TestNumericFitIsItsDefinition holds the table to: every
// answer copied into a record with its number formatted back to a string,
// one name-keyed claim table over the records, CRH / CATD iterating over
// name-keyed maps (sources in sorted-name order, each source's and each
// object's claims in record order), and the engine's claim rows parsed a
// second time.

type refTable struct {
	objects []string
	claims  map[string][]refClaim // object -> claims
	sources []string
	bySrc   map[string][]refObjVal
}

type refClaim struct {
	src string
	v   float64
}

type refObjVal struct {
	o string
	v float64
}

func refBuildTable(records []data.Record) *refTable {
	t := &refTable{claims: map[string][]refClaim{}, bySrc: map[string][]refObjVal{}}
	seenO := map[string]bool{}
	seenS := map[string]bool{}
	for _, r := range records {
		v, err := strconv.ParseFloat(r.Value, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		t.claims[r.Object] = append(t.claims[r.Object], refClaim{r.Source, v})
		t.bySrc[r.Source] = append(t.bySrc[r.Source], refObjVal{r.Object, v})
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

func refMedian(cs []refClaim) float64 {
	row := make([]numeric.Claim, len(cs))
	for i, c := range cs {
		row[i].V = c.v
	}
	return numeric.Median{}.Local(row)
}

func refCRH(records []data.Record) (map[string]float64, map[string]float64) {
	t := refBuildTable(records)
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
		truth[o] = refMedian(cs)
	}
	w := make(map[string]float64, len(t.sources))
	for _, s := range t.sources {
		w[s] = 1
	}
	for iter := 0; iter < 20; iter++ {
		loss := map[string]float64{}
		total := 0.0
		for _, s := range t.sources {
			for _, ov := range t.bySrc[s] {
				d := (ov.v - truth[ov.o]) / norm[ov.o]
				l := d * d
				if l > 1e6 {
					l = 1e6
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
		if refTruthStep(t, w, truth) < 1e-9 {
			break
		}
	}
	return truth, w
}

func refCATD(records []data.Record) (map[string]float64, map[string]float64) {
	t := refBuildTable(records)
	truth := make(map[string]float64, len(t.objects))
	for _, o := range t.objects {
		truth[o] = refMedian(t.claims[o])
	}
	w := map[string]float64{}
	for iter := 0; iter < 20; iter++ {
		for _, s := range t.sources {
			sse := 0.0
			for _, ov := range t.bySrc[s] {
				d := ov.v - truth[ov.o]
				sse += d * d
			}
			if sse < 1e-12 {
				sse = 1e-12
			}
			w[s] = numeric.ChiSquaredQuantile(0.025, float64(len(t.bySrc[s]))) / sse
		}
		if refTruthStep(t, w, truth) < 1e-9 {
			break
		}
	}
	return truth, w
}

func refTruthStep(t *refTable, w, truth map[string]float64) float64 {
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
	return maxDelta
}

// refFit is est's reference fit: CRH and CATD as above, the weightless
// estimators Local over each object's claims.
func refFit(est numeric.Estimator, records []data.Record) (truth, weights map[string]float64) {
	switch est.(type) {
	case numeric.CRH:
		return refCRH(records)
	case numeric.CATD:
		return refCATD(records)
	}
	t := refBuildTable(records)
	truth = make(map[string]float64, len(t.objects))
	for _, o := range t.objects {
		row := make([]numeric.Claim, len(t.claims[o]))
		for i, c := range t.claims[o] {
			row[i].V = c.v
		}
		truth[o] = est.Local(row)
	}
	return truth, nil
}

// refEngineFit is the numeric engine's reference Fit.
func refEngineFit(est numeric.Estimator, idx *data.Index) *numState {
	ds := idx.DS
	recs := append([]data.Record(nil), ds.Records...)
	for i := range ds.Answers {
		a := &ds.Answers[i]
		v := a.Value
		if a.Num != nil {
			v = strconv.FormatFloat(*a.Num, 'g', -1, 64)
		}
		recs = append(recs, data.Record{Object: a.Object, Source: workerPrefix + a.Worker, Value: v})
	}
	truth, weights := refFit(est, recs)
	st := newNumState(idx, weights)
	all := make([]int, len(idx.Objects))
	for oid := range all {
		all[oid] = oid
	}
	st.parseClaims(all)
	for oid, o := range idx.Objects {
		v, ok := truth[o]
		if !ok {
			v = math.NaN()
		}
		st.setEstimate(oid, v)
	}
	return st
}

// edgeStockDataset is one stock attribute with its records shuffled out of
// object order, worker answers with and without Num, and the claims a fit
// must skip: NaN, ±Inf, out-of-range and unparsable values, a source
// ("s-junk") none of whose claims parses, and an object ("o-empty") with
// no parsable claim.
func edgeStockDataset(attr synth.StockAttribute, seed int64) *data.Dataset {
	rng := rand.New(rand.NewSource(seed))
	recs := append([]data.Record(nil), attr.Records...)
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	objects := make([]string, 0, len(attr.Gold))
	for o := range attr.Gold {
		objects = append(objects, o)
	}
	sort.Strings(objects)
	bad := []string{"NaN", "+Inf", "-Inf", "1e400", "n/a", ""}
	for i, v := range bad {
		recs = append(recs,
			data.Record{Object: objects[rng.Intn(len(objects))], Source: "s-junk", Value: v},
			data.Record{Object: "o-empty", Source: fmt.Sprintf("s%d", i), Value: v})
	}
	ds := &data.Dataset{Name: "stock-" + attr.Name, Records: recs}
	for i := 0; i < 400; i++ {
		o := objects[rng.Intn(len(objects))]
		v := attr.Gold[o] * (1 + 0.05*rng.NormFloat64())
		a := data.Answer{Object: o, Worker: fmt.Sprintf("w%d", i%13), Value: strconv.FormatFloat(v, 'g', -1, 64)}
		switch i % 4 {
		case 0:
			a.Num = &v
		case 1:
			a.Value = strconv.FormatFloat(v, 'e', 3, 64) // a spelling the answer's Num would not print
		}
		ds.Answers = append(ds.Answers, a)
	}
	nan, inf := math.NaN(), math.Inf(1)
	ds.Answers = append(ds.Answers,
		data.Answer{Object: objects[0], Worker: "w-bad", Num: &nan},
		data.Answer{Object: objects[1], Worker: "w-bad", Num: &inf},
		data.Answer{Object: objects[2], Worker: "w-bad", Value: "junk"},
		data.Answer{Object: "o-empty", Worker: "w-bad", Value: "-Inf"})
	return ds
}

// TestNumericFitIsItsDefinition pins the dense fit to its definition, bit
// for bit, for every estimator on every stock attribute: the engine's
// estimates, claim rows (value and weight), provider weights and trust,
// and Estimate over the bare records.
func TestNumericFitIsItsDefinition(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameMaps := func(t *testing.T, what string, got, want map[string]float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
		}
		for k, w := range want {
			if g, ok := got[k]; !ok || !same(g, w) {
				t.Fatalf("%s[%s] = %v (present %v), want %v", what, k, g, ok, w)
			}
		}
	}
	for ai, attr := range synth.Stock(synth.StockConfig{Seed: 3, Symbols: 60}) {
		ds := edgeStockDataset(attr, int64(ai))
		idx := data.NewIndex(ds)
		empty, _ := idx.ObjectID("o-empty")
		for _, est := range numericEstimators() {
			t.Run(attr.Name+"/"+est.Name(), func(t *testing.T) {
				got := NewNumeric(est).Fit(idx).(*numState)
				want := refEngineFit(est, idx)
				for oid, o := range idx.Objects {
					if !same(got.est[oid], want.est[oid]) {
						t.Fatalf("est[%s] = %v, want %v", o, got.est[oid], want.est[oid])
					}
					g, w := got.claims[oid], want.claims[oid]
					if len(g) != len(w) {
						t.Fatalf("claims[%s]: %d claims, want %d", o, len(g), len(w))
					}
					for i := range w {
						if !same(g[i].V, w[i].V) || !same(g[i].W, w[i].W) {
							t.Fatalf("claims[%s][%d] = %v, want %v", o, i, g[i], w[i])
						}
					}
				}
				if !math.IsNaN(got.est[empty]) {
					t.Fatalf("o-empty has no parsable claim but estimates %v", got.est[empty])
				}
				sameMaps(t, "weights", got.weights, want.weights)
				if _, ok := got.weights["s-junk"]; ok {
					t.Fatal("s-junk made no parsable claim but was weighed")
				}
				if (got.weights == nil) != (want.weights == nil) {
					t.Fatalf("weights nil = %v, want %v", got.weights == nil, want.weights == nil)
				}
				sameMaps(t, "source trust", got.res.SourceTrust, want.res.SourceTrust)
				sameMaps(t, "worker trust", got.res.WorkerTrust, want.res.WorkerTrust)
				if !same(got.unseen, want.unseen) {
					t.Fatalf("unseen = %v, want %v", got.unseen, want.unseen)
				}

				refTruth, _ := refFit(est, ds.Records)
				sameMaps(t, "Estimate", est.Estimate(ds.Records), refTruth)
			})
		}
	}
}
