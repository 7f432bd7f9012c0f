package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/hierarchy"
)

// candPos is the position of candidate v, which the test knows is in Vo.
func candPos(ci *hierarchy.CandidateIndex, v string) int {
	i, ok := ci.Pos(v)
	if !ok {
		panic("candidate " + v + " not in Vo")
	}
	return i
}

func geoTree(t testing.TB) *hierarchy.Tree {
	t.Helper()
	tr := hierarchy.New(hierarchy.Root)
	for _, e := range [][2]string{
		{"USA", hierarchy.Root}, {"UK", hierarchy.Root},
		{"NY", "USA"}, {"LA", "USA"}, {"LibertyIsland", "NY"},
		{"London", "UK"}, {"Manchester", "UK"}, {"Westminster", "London"},
	} {
		tr.MustAdd(e[0], e[1])
	}
	tr.Freeze()
	return tr
}

// table1Dataset is the paper's running example plus enough extra objects to
// estimate source trust.
func table1Dataset(t testing.TB) *data.Dataset {
	t.Helper()
	return &data.Dataset{
		Name: "table1",
		Records: []data.Record{
			{Object: "statue", Source: "unesco", Value: "NY"},
			{Object: "statue", Source: "wiki", Value: "LibertyIsland"},
			{Object: "statue", Source: "arrangy", Value: "LA"},
			{Object: "bigben", Source: "quora", Value: "Manchester"},
			{Object: "bigben", Source: "trip", Value: "London"},
			{Object: "esb", Source: "unesco", Value: "NY"},
			{Object: "esb", Source: "wiki", Value: "NY"},
			{Object: "esb", Source: "arrangy", Value: "LA"},
			{Object: "abbey", Source: "wiki", Value: "Westminster"},
			{Object: "abbey", Source: "unesco", Value: "London"},
			{Object: "abbey", Source: "quora", Value: "Manchester"},
		},
		Truth: map[string]string{
			"statue": "LibertyIsland", "bigben": "London",
			"esb": "NY", "abbey": "Westminster",
		},
		H: geoTree(t),
	}
}

func TestRunTable1(t *testing.T) {
	ds := table1Dataset(t)
	idx := data.NewIndex(ds)
	m := Run(idx, DefaultOptions())
	truths := m.Truths()
	// The paper's headline: LibertyIsland wins because NY supports it.
	if truths["statue"] != "LibertyIsland" {
		t.Fatalf("statue = %q, want LibertyIsland", truths["statue"])
	}
	if truths["abbey"] != "Westminster" {
		t.Fatalf("abbey = %q, want Westminster", truths["abbey"])
	}
	if truths["esb"] != "NY" {
		t.Fatalf("esb = %q, want NY", truths["esb"])
	}
	if m.Iterations < 2 {
		t.Fatalf("suspiciously few EM iterations: %d", m.Iterations)
	}
	// Wikipedia (always exactly right here) must have the highest φ1.
	wiki := m.PhiOf("wiki")[0]
	for _, s := range []string{"unesco", "arrangy", "quora"} {
		if m.PhiOf(s)[0] >= wiki {
			t.Errorf("phi1(%s)=%.3f should be below wiki=%.3f", s, m.PhiOf(s)[0], wiki)
		}
	}
	// UNESCO generalizes (NY for the statue, London for the abbey): its φ2
	// should exceed Arrangy's (which is just wrong).
	if m.PhiOf("unesco")[1] <= m.PhiOf("arrangy")[1] {
		t.Error("unesco should look like a generalizer compared to arrangy")
	}
}

func TestModelInvariants(t *testing.T) {
	ds := table1Dataset(t)
	idx := data.NewIndex(ds)
	m := Run(idx, DefaultOptions())
	for oid, mu := range muRows(m) {
		o := idx.Objects[oid]
		sum := 0.0
		for _, p := range mu {
			if p < 0 || p > 1+1e-9 {
				t.Fatalf("mu out of range on %s: %v", o, mu)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("mu not normalized on %s: sum=%v", o, sum)
		}
		// μ = N / D must hold after the final stats refresh.
		for i := range mu {
			if math.Abs(mu[i]-m.NAt(oid)[i]/m.DAt(oid)) > 1e-9 {
				t.Fatalf("mu != N/D on %s", o)
			}
		}
	}
	for sid, phi := range m.Phi {
		if math.Abs(phi[0]+phi[1]+phi[2]-1) > 1e-9 {
			t.Fatalf("phi(%s) not a simplex: %v", idx.SourceNames[sid], phi)
		}
	}
}

func TestWorkerAnswersShiftConfidence(t *testing.T) {
	ds := table1Dataset(t)
	// Three workers voting London for bigben must beat the single source
	// pair's tie.
	ds.Answers = []data.Answer{
		{Object: "bigben", Worker: "w1", Value: "London"},
		{Object: "bigben", Worker: "w2", Value: "London"},
		{Object: "bigben", Worker: "w3", Value: "London"},
	}
	idx := data.NewIndex(ds)
	m := Run(idx, DefaultOptions())
	if got := m.Truths()["bigben"]; got != "London" {
		t.Fatalf("bigben = %q, want London", got)
	}
	ov := idx.View("bigben")
	london := candPos(ov.CI, "London")
	if m.MuOf("bigben")[london] < 0.6 {
		t.Fatalf("London confidence too low: %v", m.MuOf("bigben"))
	}
	for wid, psi := range m.Psi {
		if math.Abs(psi[0]+psi[1]+psi[2]-1) > 1e-9 {
			t.Fatalf("psi(%s) not a simplex: %v", idx.WorkerNames[wid], psi)
		}
	}
}

func TestFlatAblation(t *testing.T) {
	ds := table1Dataset(t)
	idx := data.NewIndex(ds)
	m := Run(data.NewIndex(flatInput(ds)), DefaultOptions())
	// Flat model sees three unrelated values for the statue: a 1/1/1 tie
	// that the hierarchy would have resolved. The winner is then decided by
	// smoothed popularity, not by hierarchical support — LibertyIsland no
	// longer has NY's backing, so its confidence must not dominate.
	ov := idx.View("statue")
	mu := m.MuOf("statue")
	li := candPos(ov.CI, "LibertyIsland")
	ny := candPos(ov.CI, "NY")
	if mu[li] > mu[ny]+0.2 {
		t.Fatalf("flat model should not give LibertyIsland hierarchical support: %v", mu)
	}
	// The hierarchical model must give LibertyIsland strictly more
	// confidence than the flat one.
	mh := Run(idx, DefaultOptions())
	if mh.MuOf("statue")[li] <= mu[li] {
		t.Fatalf("hierarchy should boost the specific truth: hier=%v flat=%v",
			mh.MuOf("statue")[li], mu[li])
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	var o Options
	d := o.WithDefaults()
	if d.Alpha != [3]float64{3, 3, 2} || d.Beta != [3]float64{2, 2, 2} || d.Gamma != 2 {
		t.Fatalf("defaults wrong: %+v", d)
	}
	if d.MaxIter != 200 || d.Tol != 1e-7 {
		t.Fatalf("defaults wrong: %+v", d)
	}
	// Explicit values survive.
	o = Options{Alpha: [3]float64{1, 1, 1}, MaxIter: 5}
	d = o.WithDefaults()
	if d.Alpha != [3]float64{1, 1, 1} || d.MaxIter != 5 {
		t.Fatalf("explicit values overwritten: %+v", d)
	}
}

// TestQuickClaimProbNormalized is the regression test for the mass-loss bug
// the task assigner exposed: for EVERY hypothesized truth, the claim
// distribution over the candidate set must sum to 1 — including truths with
// no candidate ancestors inside hierarchical objects.
func TestQuickClaimProbNormalized(t *testing.T) {
	tr := geoTree(t)
	all := []string{"USA", "UK", "NY", "LA", "LibertyIsland", "London", "Manchester", "Westminster"}
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%5) + 2
		// Random candidate set and random source counts over it.
		perm := rng.Perm(len(all))[:n]
		ds := &data.Dataset{Name: "q", Truth: map[string]string{}, H: tr}
		for i, pi := range perm {
			// Each candidate claimed by 1-3 sources so Pop terms exist.
			for k := 0; k <= rng.Intn(3); k++ {
				ds.Records = append(ds.Records, data.Record{
					Object: "o", Source: string(rune('A'+i)) + string(rune('a'+k)), Value: all[pi],
				})
			}
		}
		idx := data.NewIndex(ds)
		m := Run(idx, Options{MaxIter: 3}.WithDefaults())
		ov := idx.View("o")
		phi := m.DefaultPhi()
		psi := m.DefaultPsi()
		for tru := 0; tru < ov.CI.NumValues(); tru++ {
			var ss, sw float64
			for c := 0; c < ov.CI.NumValues(); c++ {
				ss += m.sourceClaimProb(ov, c, tru, phi)
				sw += m.workerClaimProb(ov, c, tru, psi)
			}
			if math.Abs(ss-1) > 1e-6 || math.Abs(sw-1) > 1e-6 {
				t.Logf("truth=%s: source sum=%v worker sum=%v (|Vo|=%d)", ov.CI.Values[tru], ss, sw, ov.CI.NumValues())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	ds := table1Dataset(t)
	idx1 := data.NewIndex(ds)
	idx2 := data.NewIndex(ds.Clone())
	m1 := Run(idx1, DefaultOptions())
	m2 := Run(idx2, DefaultOptions())
	for oid, mu := range muRows(m1) {
		for i := range mu {
			if mu[i] != m2.MuAt(oid)[i] {
				t.Fatalf("non-deterministic result on %s", idx1.Objects[oid])
			}
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	// No records at all.
	idx := data.NewIndex(&data.Dataset{Name: "empty", Truth: map[string]string{}})
	m := Run(idx, DefaultOptions())
	if len(m.Truths()) != 0 {
		t.Fatal("empty dataset must yield no truths")
	}
	// Single record, no hierarchy.
	ds := &data.Dataset{
		Name:    "single",
		Records: []data.Record{{Object: "o", Source: "s", Value: "v"}},
		Truth:   map[string]string{},
	}
	m = Run(data.NewIndex(ds), DefaultOptions())
	if got := m.Truths()["o"]; got != "v" {
		t.Fatalf("single-claim truth = %q", got)
	}
	if got := m.MaxConfidenceAt(0); got != 1 {
		t.Fatalf("single-candidate confidence = %v, want 1", got)
	}
}

func TestPhiPsiFallbacks(t *testing.T) {
	ds := table1Dataset(t)
	m := Run(data.NewIndex(ds), DefaultOptions())
	if m.PhiOf("never-seen") != m.DefaultPhi() {
		t.Fatal("unknown source must fall back to the prior mean")
	}
	if m.PsiOf("never-seen") != m.DefaultPsi() {
		t.Fatal("unknown worker must fall back to the prior mean")
	}
	want := [3]float64{3.0 / 8, 3.0 / 8, 2.0 / 8}
	if m.DefaultPhi() != want {
		t.Fatalf("prior mean = %v, want %v", m.DefaultPhi(), want)
	}
}

func newRandForTest(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
