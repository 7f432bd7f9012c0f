package synth

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/hierarchy"
)

func TestGeoShape(t *testing.T) {
	tr := Geo(GeoConfig{Seed: 1, Fanouts: []int{5, 8, 6, 5, 3}, Jitter: 0.05, Prefix: "bp:"})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Height(); got != 5 {
		t.Fatalf("height = %d, want 5", got)
	}
	// ≈5,085 nodes nominal, minus ~5% jitter on the last level.
	if n := tr.Len(); n < 4200 || n > 5200 {
		t.Fatalf("nodes = %d, want ≈5,000 (paper: 4,999)", n)
	}
	// Determinism.
	tr2 := Geo(GeoConfig{Seed: 1, Fanouts: []int{5, 8, 6, 5, 3}, Jitter: 0.05, Prefix: "bp:"})
	if tr.Len() != tr2.Len() {
		t.Fatal("generator must be deterministic for a fixed seed")
	}
}

func TestDeepNodes(t *testing.T) {
	tr := Geo(GeoConfig{Seed: 1, Fanouts: []int{3, 3}, Prefix: "x:"})
	deep := DeepNodes(tr, 2)
	if len(deep) != 9 {
		t.Fatalf("deep nodes = %d, want 9", len(deep))
	}
	for _, n := range deep {
		if tr.Depth(n) < 2 {
			t.Fatalf("node %s too shallow", n)
		}
	}
}

func TestBirthPlacesStatistics(t *testing.T) {
	ds := BirthPlaces(BirthPlacesConfig{Seed: 7, Scale: 1})
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(ds.Truth); got != 6005 {
		t.Fatalf("objects = %d, want 6005", got)
	}
	// 13,510 records in the paper plus the anchor guarantee's extras.
	if got := len(ds.Records); got < 13000 || got > 20000 {
		t.Fatalf("records = %d, want ≈13,510 plus anchors", got)
	}
	if got := ds.H.Height(); got != 5 {
		t.Fatalf("hierarchy height = %d, want 5", got)
	}
	// Weighted mean exact source accuracy ≈ 72% (paper: 72.1%).
	qual := eval.SourceQuality(ds)
	var num, den float64
	for _, q := range qual {
		num += q.Accuracy * float64(q.Claims)
		den += float64(q.Claims)
	}
	if acc := num / den; acc < 0.65 || acc > 0.82 {
		t.Fatalf("weighted source accuracy = %v, want ≈0.72", acc)
	}
	// Every object has at least one claim, and at least one claim that is
	// the truth or an ancestor of it (the anchor guarantee).
	idx := data.NewIndex(ds)
	for o, gold := range ds.Truth {
		ov := idx.View(o)
		if ov == nil {
			t.Fatalf("object %s has no claims", o)
		}
		ok := false
		for _, v := range ov.CI.Values {
			if v == gold || ds.H.IsAncestor(v, gold) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("object %s violates the anchor guarantee", o)
		}
	}
}

func TestBirthPlacesGeneralizationTendencies(t *testing.T) {
	// Figure 1's premise: sources differ in their GenAccuracy - Accuracy
	// gap; the heavy generalizers (src-4, src-5, src-7) must show clearly
	// larger gaps than src-2.
	ds := BirthPlaces(BirthPlacesConfig{Seed: 7, Scale: 0.5})
	qual := eval.SourceQuality(ds)
	gap := func(s string) float64 { return qual[s].GenAccuracy - qual[s].Accuracy }
	for _, heavy := range []string{"src-4", "src-5", "src-7"} {
		if gap(heavy) <= gap("src-2") {
			t.Errorf("%s gap %v should exceed src-2 gap %v", heavy, gap(heavy), gap("src-2"))
		}
	}
}

func TestHeritagesStatistics(t *testing.T) {
	ds := Heritages(HeritagesConfig{Seed: 7, Scale: 1})
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(ds.Truth); got != 785 {
		t.Fatalf("objects = %d, want 785", got)
	}
	if got := len(ds.Sources()); got < 600 || got > 1800 {
		t.Fatalf("sources = %d, want ≈1,577 long-tail", got)
	}
	if got := ds.H.Height(); got != 6 {
		t.Fatalf("hierarchy height = %d, want 6", got)
	}
	if n := ds.H.Len(); n < 800 || n > 1400 {
		t.Fatalf("hierarchy nodes = %d, want ≈1,027", n)
	}
	// Long tail: the median source has very few claims.
	idx := data.NewIndex(ds)
	small := 0
	for _, s := range idx.SourceNames {
		if len(idx.ObjectsOfSource(s)) <= 3 {
			small++
		}
	}
	if frac := float64(small) / float64(len(idx.SourceNames)); frac < 0.5 {
		t.Fatalf("only %v of sources are small; want a long tail", frac)
	}
	// Mean generalized source accuracy is low (paper: 58%).
	qual := eval.SourceQuality(ds)
	var accSum float64
	var n int
	for _, q := range qual {
		if q.Claims == 0 {
			continue
		}
		accSum += q.GenAccuracy
		n++
	}
	if mean := accSum / float64(n); mean < 0.40 || mean > 0.75 {
		t.Fatalf("mean generalized source accuracy = %v, want ≈0.58", mean)
	}
}

func TestStockGenerator(t *testing.T) {
	attrs := Stock(StockConfig{Seed: 7, Symbols: 100, Sources: 20})
	if len(attrs) != 3 {
		t.Fatalf("attributes = %d, want 3", len(attrs))
	}
	names := map[string]bool{}
	for _, a := range attrs {
		names[a.Name] = true
		if len(a.Gold) != 100 {
			t.Fatalf("%s: gold = %d", a.Name, len(a.Gold))
		}
		// ~85% coverage of 100 symbols × 20 sources.
		if len(a.Records) < 1200 || len(a.Records) > 2000 {
			t.Fatalf("%s: records = %d", a.Name, len(a.Records))
		}
		for _, r := range a.Records {
			if r.Value == "" {
				t.Fatalf("%s: empty value", a.Name)
			}
		}
	}
	for _, want := range []string{"change-rate", "open-price", "eps"} {
		if !names[want] {
			t.Fatalf("missing attribute %s", want)
		}
	}
}

func TestWorkerPool(t *testing.T) {
	pool := NewWorkerPool(WorkerPoolConfig{Seed: 7, Count: 50, Pi: 0.75})
	if len(pool) != 50 {
		t.Fatalf("pool = %d", len(pool))
	}
	for _, w := range pool {
		if w.P < 0.699 || w.P > 0.801 {
			t.Fatalf("worker accuracy %v outside πp±0.05", w.P)
		}
	}
	// Defaults: 10 workers at πp = 0.75.
	def := NewWorkerPool(WorkerPoolConfig{Seed: 1})
	if len(def) != 10 {
		t.Fatalf("default pool = %d", len(def))
	}
}

func TestWorkerAnswerDistribution(t *testing.T) {
	ds := BirthPlaces(BirthPlacesConfig{Seed: 3, Scale: 0.05})
	idx := data.NewIndex(ds)
	w := Worker{Name: "w", P: 0.8}
	rng := rand.New(rand.NewSource(5))
	correct, total := 0, 0
	expected := 0.0
	for _, o := range idx.Objects {
		ov := idx.View(o)
		gold := ds.Truth[o]
		// Effective gold: the most specific candidate equal to or above the
		// truth (what "answering correctly" means inside Vo).
		eff := ""
		effDepth := -1
		for _, v := range ov.CI.Values {
			if v == gold || ds.H.IsAncestor(v, gold) {
				if d := ds.H.Depth(v); d > effDepth {
					eff, effDepth = v, d
				}
			}
		}
		// Analytic hit rate: the correct branch (P) plus the random
		// branch's chance of landing on the effective gold.
		perObj := 0.0
		if eff != "" {
			perObj = w.P + (1-w.P)/float64(ov.CI.NumValues())
		}
		for rep := 0; rep < 5; rep++ {
			ans := w.Answer(rng, ds, ov)
			if _, ok := ov.CI.Pos(ans); !ok {
				t.Fatalf("answer %q outside the candidate set", ans)
			}
			if ans == eff {
				correct++
			}
			total++
			expected += perObj
		}
	}
	acc := float64(correct) / float64(total)
	want := expected / float64(total)
	if math.Abs(acc-want) > 0.05 {
		t.Fatalf("empirical worker accuracy = %v, want ≈%v", acc, want)
	}
	if acc < w.P {
		t.Fatalf("accuracy %v below the worker's correct-branch probability", acc)
	}
}

func TestNumericTreeIntegration(t *testing.T) {
	// Stock claims must build a valid implicit hierarchy.
	attrs := Stock(StockConfig{Seed: 9, Symbols: 20, Sources: 10})
	var claims []string
	for _, r := range attrs[0].Records {
		claims = append(claims, r.Value)
	}
	tree, canon := hierarchy.NumericTree(claims)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range claims {
		if !tree.Contains(canon[c]) {
			t.Fatalf("claim %q missing from tree", c)
		}
	}
}
