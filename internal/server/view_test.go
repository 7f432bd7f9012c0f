package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/synth"
)

// waitApplied blocks until the served snapshot has folded the given number
// of answers and mutations.
func waitApplied(t *testing.T, s *Server, answers, mutations int) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if sn := s.Snapshot(); sn.Answers >= answers && sn.Mutations >= mutations {
			return sn
		}
		if time.Now().After(deadline) {
			sn := s.Snapshot()
			t.Fatalf("snapshot stuck at %d answers / %d mutations, want %d / %d", sn.Answers, sn.Mutations, answers, mutations)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// reachable deep-copies every value a reader can reach from one snapshot:
// the Result read API, the state's wire encoders, the plan's confidence
// rows and every part it holds (assign.Plan.AppendParts: under EAI the
// bounds, the cold-worker scores, both rankings and the settled count) and
// the trust maps.
type reachable struct {
	Rows, PlanMu     [][]float64
	Truths           []string
	TruthMap         any
	Confidence       []any
	PlanParts        []float64
	Sources, Workers map[string]float64
}

// coldScores is an EAI plan's cold-worker score per object: AppendParts
// lays such a plan out as its bounds, then these.
func coldScores(p *assign.Plan) []float64 {
	n := p.Idx.NumObjects()
	return p.AppendParts(nil)[n : 2*n]
}

func captureReachable(sn *Snapshot) reachable {
	var r reachable
	for oid := range sn.Idx.Objects {
		r.Rows = append(r.Rows, append([]float64(nil), sn.Res.ConfidenceAt(oid)...))
		r.Truths = append(r.Truths, sn.Res.TruthAt(oid))
		r.Confidence = append(r.Confidence, sn.St.Confidence(oid))
		r.PlanMu = append(r.PlanMu, append([]float64(nil), sn.Plan().Row(oid)...))
	}
	truths := map[string]string{}
	for o, v := range sn.St.Truths().(map[string]string) {
		truths[o] = v
	}
	r.TruthMap = truths
	r.PlanParts = sn.Plan().AppendParts(nil)
	r.Sources, r.Workers = map[string]float64{}, map[string]float64{}
	for k, v := range sn.Res.SourceTrust {
		r.Sources[k] = v
	}
	for k, v := range sn.Res.WorkerTrust {
		r.Workers[k] = v
	}
	return r
}

// TestSnapshotImmutableUnderAliasing is the test of the design's classic
// failure: a published result ALIASES the sealed model's rows instead of
// copying them, and the model a fold writes into shares every page of 256
// objects with the sealed one until it writes it, so a single fold that
// wrote a page it did not own would corrupt every snapshot still held by a
// reader. Hold snapshot k — itself a folded, grown view — run 60 further
// fold/seal cycles and 6 growths that touch the same objects, with
// concurrent /task, /truths, /confidence and /trust readers (the -race
// jobs run this), and require every value reachable from snapshot k — the
// plan's bounds, cold-worker scores and their rankings included, which the
// hot objects' positive cold-worker scores make every fold write — to be
// bit-identical to what it was at publish. Then the same over 60 more
// fold-only cycles from the last growth on (a growth is a fresh build; folds
// are what share pages), with the sharing itself pinned: an untouched
// neighbour in the hot objects' page has had that page copied under it,
// value for value, while objects in pages no fold touched still read the
// very memory the held snapshot reads — shared, not copied. Last, the
// negative control: a write that skips the page copy fails the check.
func TestSnapshotImmutableUnderAliasing(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 4, Scale: 1}) // 785 objects: four pages
	s, ts := newFoldServer(t, ds)
	defer s.Close()
	// The hot objects lie in the first page, the neighbour's, and have a
	// positive cold-worker score, so their folds write the plan's cold
	// cache and not just its bounds.
	var hot []string
	boot := s.Snapshot()
	cold := coldScores(boot.Plan())
	for oid := 0; len(hot) < 8; oid++ {
		if oid != 200 && cold[oid] > 0 {
			hot = append(hot, boot.Idx.Objects[oid])
		}
	}
	if hi := boot.Idx.View(hot[7]).ID; hi >= 256 {
		t.Fatalf("the first page holds under 8 objects with a positive cold-worker score (8th at ID %d)", hi)
	}
	answers, mutations := 0, 0
	answer := func(round int) {
		for i, o := range hot {
			vals := s.Snapshot().Idx.View(o).CI.Values
			a := data.Answer{Worker: fmt.Sprintf("w%d-%d", round, i), Object: o, Value: vals[(round+i)%len(vals)]}
			if resp := postJSON(t, ts.URL+"/answer", a); resp.StatusCode != 200 {
				t.Fatalf("answer %s/%s status %d", a.Worker, o, resp.StatusCode)
			}
			answers++
		}
	}
	grow := func(round int) {
		vals := s.Snapshot().Idx.View(hot[round%len(hot)]).CI.Values
		rec := data.Record{Object: hot[round%len(hot)], Source: fmt.Sprintf("src-%d", round), Value: vals[0]}
		if resp := postJSON(t, ts.URL+"/records", rec); resp.StatusCode != 200 {
			t.Fatalf("add record status %d", resp.StatusCode)
		}
		obj := AddObjectRequest{Object: fmt.Sprintf("zz-grown-%d", round), Candidates: vals}
		if resp := postJSON(t, ts.URL+"/objects", obj); resp.StatusCode != 200 {
			t.Fatalf("add object status %d", resp.StatusCode)
		}
		mutations += 2
	}

	answer(0)
	grow(0)
	waitApplied(t, s, answers, mutations)
	answer(1)
	held := waitApplied(t, s, answers, mutations)
	if held.Res.Truths != nil {
		t.Fatal("snapshot k is not a view: the test would not exercise aliasing")
	}
	before := captureReachable(held)
	if n := held.Idx.NumObjects(); len(before.PlanParts) < 6*n {
		t.Fatalf("the held plan holds %d part values over %d objects: it lacks EAI's bounds, cold-worker scores or their rankings", len(before.PlanParts), n)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i, path := range []string{"/task?worker=reader", "/truths", "/confidence?object=" + hot[0], "/trust"} {
		readers.Add(1)
		go func(i int, path string) {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				url := ts.URL + path
				if i == 0 {
					url += fmt.Sprint(n % 16)
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("GET %s = %d", path, resp.StatusCode)
					return
				}
			}
		}(i, path)
	}
	for round := 2; round < 62; round++ {
		answer(round)
		if round%10 == 0 {
			grow(round)
		}
		waitApplied(t, s, answers, mutations) // one coordinator cycle (at least) per round
	}
	close(stop)
	readers.Wait()

	last := s.Snapshot()
	if st := s.Stats(); st.PlanBuilds != 1 || st.PlanFallbacks != 0 || st.PlanAdvances < 60 {
		t.Fatalf("plan maintenance left the delta path: %+v", st)
	}
	// The other half of aliasing: a plan carried forward by Advance must read
	// rows of the model it was advanced TO only. Rows are sub-slices of pages,
	// so a plan that kept an untouched object's row from an older model would
	// pin pages the current model has long replaced — more every cycle.
	for oid := range last.Idx.Objects {
		if &last.Plan().Row(oid)[0] != &last.Res.ConfidenceAt(oid)[0] {
			t.Fatalf("the served plan still holds a past model's row for %s", last.Idx.Objects[oid])
		}
	}
	oid := held.Idx.View(hot[0]).ID
	if reflect.DeepEqual(last.Res.ConfidenceAt(oid), before.Rows[oid]) {
		t.Fatal("60 rounds of answers never moved the hot object's row")
	}
	requireUnchanged := func(tag string, sn *Snapshot, before reachable) {
		t.Helper()
		if after := captureReachable(sn); !reflect.DeepEqual(after, before) {
			for oid := range before.Rows {
				if !reflect.DeepEqual(after.Rows[oid], before.Rows[oid]) {
					t.Errorf("%s: object %s: row was %v at publish, reads %v now", tag, sn.Idx.Objects[oid], before.Rows[oid], after.Rows[oid])
				}
			}
			t.Fatalf("%s: a value reachable from a held snapshot changed after it was published", tag)
		}
	}
	requireUnchanged("across folds and growths", held, before)

	// Page sharing, from the last growth on. The hot objects lie in the
	// first page; neighbour shares it and is never answered, far1 and far2
	// lie in pages no fold of this phase writes.
	const neighbour, far1, far2 = 200, 300, 600
	mid := last
	midModel := mid.Res.Model.(*core.Model)
	midBefore, midAdvances := captureReachable(mid), s.Stats().PlanAdvances
	for round := 62; round < 122; round++ {
		answer(round)
		waitApplied(t, s, answers, mutations)
	}
	final := s.Snapshot()
	finalModel := final.Res.Model.(*core.Model)
	if st := s.Stats(); st.PlanBuilds != 1 || st.PlanFallbacks != 0 || st.PlanAdvances < midAdvances+60 {
		t.Fatalf("the fold-only phase left the delta path: %+v", st)
	}
	for _, far := range []int{far1, far2} {
		if &finalModel.MuAt(far)[0] != &midModel.MuAt(far)[0] || &finalModel.NAt(far)[0] != &midModel.NAt(far)[0] {
			t.Fatalf("object %d lies in a page no fold touched, yet 60 cycles later its rows are a copy", far)
		}
	}
	if &finalModel.MuAt(neighbour)[0] == &midModel.MuAt(neighbour)[0] {
		t.Fatal("the hot objects' page was written in place: their neighbour still reads the held snapshot's memory")
	}
	if !reflect.DeepEqual(finalModel.MuAt(neighbour), midModel.MuAt(neighbour)) || finalModel.DAt(neighbour) != midModel.DAt(neighbour) {
		t.Fatal("copying the page changed an untouched neighbour's values")
	}
	requireUnchanged("across fold-only cycles", held, before)
	requireUnchanged("across fold-only cycles, from the last growth", mid, midBefore)

	// Negative control: what a fold that skipped the ownership step would do
	// — write the row it reads, which still aliases the held snapshot's page.
	rogue := midModel.Clone()
	rogue.MuAt(neighbour)[0] += 0.25
	if reflect.DeepEqual(captureReachable(mid), midBefore) {
		t.Fatal("a write that skipped the page copy went unnoticed: the check above cannot see aliasing")
	}
}

// body GETs a path on the handler and returns the response bytes.
func body(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// encoded is what writeJSON puts on the wire for v.
func encoded(v any) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, v)
	return rec.Body.Bytes()
}

// TestReadEndpointsServeTheCopy: after folds and a growth, every read
// endpoint answers byte for byte what the sealed model itself holds — its
// truths (m.Truths), its μ rows (m.MuAt) and φ_{s,1} / ψ_{w,1} — which is
// what each publish served back when it copied the model into name-keyed
// maps.
func TestReadEndpointsServeTheCopy(t *testing.T) {
	for name, ds := range map[string]*data.Dataset{
		"birthplaces": synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 3, Scale: 0.04}),
		"heritages":   synth.Heritages(synth.HeritagesConfig{Seed: 3, Scale: 0.08}),
	} {
		t.Run(name, func(t *testing.T) {
			s, ts := newFoldServer(t, ds)
			defer s.Close()
			answers, mutations := driveCampaign(t, s, ts.URL)
			sn := waitApplied(t, s, answers, mutations)
			m := sn.Res.Model.(*core.Model)
			h := s.Handler()
			if got := body(t, h, "/truths"); !bytes.Equal(got, encoded(m.Truths())) {
				t.Fatal("GET /truths differs from the model's truths")
			}
			sources, workers := map[string]float64{}, map[string]float64{}
			for _, src := range sn.Idx.SourceNames {
				sources[src] = m.PhiOf(src)[0]
			}
			for _, w := range sn.Idx.WorkerNames {
				workers[w] = m.PsiOf(w)[0]
			}
			if got := body(t, h, "/trust"); !bytes.Equal(got, encoded(map[string]any{
				"sources": sources, "workers": workers})) {
				t.Fatal("GET /trust differs from the model's φ/ψ")
			}
			for oid, o := range sn.Idx.Objects {
				conf := map[string]float64{}
				for i, v := range sn.Idx.ViewAt(oid).CI.Values {
					conf[v] = m.MuAt(oid)[i]
				}
				if got := body(t, h, "/confidence?object="+o); !bytes.Equal(got, encoded(conf)) {
					t.Fatalf("GET /confidence?object=%s differs from the model's row", o)
				}
			}
			if !reflect.DeepEqual(s.Truths(), m.Truths()) {
				t.Fatal("Server.Truths differs from the model's truths")
			}
		})
	}
}

// TestNumericTrustEndpoint pins the /trust bugfix end to end: a CRH campaign
// serves its fitted provider weights — sources and workers, in [0,1] —
// where it used to serve two empty objects, folds keep serving them, and
// plan maintenance stays on the delta path now that the numeric fold is
// object-local.
func TestNumericTrustEndpoint(t *testing.T) {
	attr := synth.Stock(synth.StockConfig{Seed: 2, Symbols: 30})[1]
	eng, err := engine.New(engine.Numeric, "CRH", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Dataset: &data.Dataset{Name: "stock", Records: attr.Records}, Engine: eng, Assigner: assign.ME{},
		OpenAnswers: true, Policy: RefitPolicy{MaxAnswers: 8, MaxStaleness: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	objs := s.SortedObjects()
	post := func(from, to int) {
		for i := from; i < to; i++ {
			v := attr.Gold[objs[i]]
			a := data.Answer{Worker: fmt.Sprintf("w%d", i%3), Object: objs[i], Num: &v}
			if resp := postJSON(t, ts.URL+"/answer", a); resp.StatusCode != 200 {
				t.Fatalf("answer status %d", resp.StatusCode)
			}
		}
	}
	var trust struct{ Sources, Workers map[string]float64 }
	check := func(tag string, workers int) {
		t.Helper()
		getJSON(t, ts.URL+"/trust", &trust)
		if len(trust.Sources) == 0 || len(trust.Workers) != workers {
			t.Fatalf("%s: /trust = %d sources, %d workers; want every source and %d workers", tag, len(trust.Sources), len(trust.Workers), workers)
		}
		for _, m := range []map[string]float64{trust.Sources, trust.Workers} {
			for p, v := range m {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("%s: trust[%s] = %v outside [0,1]", tag, p, v)
				}
			}
		}
	}
	check("boot", 0)
	post(0, 8) // the eighth answer triggers a refit: the workers get weights
	deadline := time.Now().Add(10 * time.Second)
	for s.Snapshot().Round < 2 {
		if time.Now().After(deadline) {
			t.Fatal("count-triggered refit never ran")
		}
		time.Sleep(time.Millisecond)
	}
	check("refit", 3)
	post(8, 12) // folds: weights frozen, trust carried over
	sn := waitApplied(t, s, 12, 0)
	check("fold", 3)
	if sn.Res.Truths != nil || sn.Res.Rows != sn.Res.Model {
		t.Fatal("a numeric fold built a name-keyed map or rows other than its state's")
	}
	if st := s.Stats(); st.PlanAdvances == 0 || st.PlanBuilds != 2 {
		t.Fatalf("numeric folds must advance the plan, refits build it: %+v", st)
	}
	out := scrapeMetrics(t, ts.URL)
	for _, id := range []string{"tdh_ueai_max", "tdh_settled_objects"} {
		if got := seriesFloat(t, out, id); got != 0 {
			t.Fatalf("%s = %v on a campaign with no TDH model", id, got)
		}
	}
}
