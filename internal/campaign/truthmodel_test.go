package campaign

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/engine"
)

// numericDataset builds a numeric campaign seed: three sources report a
// reading per object, one of them biased, no value hierarchy.
func numericDataset(name string, objects int) *data.Dataset {
	ds := &data.Dataset{Name: name, Truth: map[string]string{}}
	for i := 0; i < objects; i++ {
		o := fmt.Sprintf("%s-n%02d", name, i)
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "s1", Value: "10"},
			data.Record{Object: o, Source: "s2", Value: "10.4"},
			data.Record{Object: o, Source: "s3", Value: "19"},
		)
		ds.Truth[o] = "10.2"
	}
	return ds
}

// TestListTruthModelFilter is the satellite table-driven handler test for
// GET /v1/campaigns: truth_model appears on every item, ?truth_model=
// filters alongside ?state=, and bad values 400.
func TestListTruthModelFilter(t *testing.T) {
	m := mustOpen(t, t.TempDir())
	defer m.Close()
	h := m.Handler()

	for _, c := range []struct {
		id    string
		spec  Spec
		state State
		ds    *data.Dataset
	}{
		{"cat-a", Spec{ID: "cat-a"}, StateLive, testDataset("cat-a", 3)},
		{"cat-b", Spec{ID: "cat-b", TruthModel: "categorical"}, "", testDataset("cat-b", 3)},
		{"num-a", Spec{ID: "num-a", TruthModel: "numeric"}, StateLive, numericDataset("num-a", 3)},
		{"set-a", Spec{ID: "set-a", TruthModel: "multi_truth", Inferencer: "DART"}, "", testDataset("set-a", 3)},
	} {
		if rec := doReq(t, h, "POST", "/v1/campaigns", createBody(t, c.spec, c.state, c.ds)); rec.Code != 201 {
			t.Fatalf("create %s: %d: %s", c.id, rec.Code, rec.Body.String())
		}
	}

	list := func(query string) map[string]string {
		t.Helper()
		rec := doReq(t, h, "GET", "/v1/campaigns"+query, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("list%s: %d: %s", query, rec.Code, rec.Body.String())
		}
		var out struct {
			Campaigns []struct {
				ID         string `json:"id"`
				TruthModel string `json:"truth_model"`
			} `json:"campaigns"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		models := map[string]string{}
		for _, c := range out.Campaigns {
			models[c.ID] = c.TruthModel
		}
		return models
	}

	// Every item carries its truth model (explicit or defaulted).
	all := list("")
	want := map[string]string{
		"cat-a": "categorical", "cat-b": "categorical",
		"num-a": "numeric", "set-a": "multi_truth",
	}
	if len(all) != len(want) {
		t.Fatalf("list = %v", all)
	}
	for id, tm := range want {
		if all[id] != tm {
			t.Fatalf("campaign %s truth_model = %q, want %q", id, all[id], tm)
		}
	}

	cases := []struct {
		query string
		want  []string
	}{
		{"?truth_model=categorical", []string{"cat-a", "cat-b"}},
		{"?truth_model=numeric", []string{"num-a"}},
		{"?truth_model=multi_truth", []string{"set-a"}},
		{"?truth_model=numeric&state=live", []string{"num-a"}},
		{"?truth_model=numeric&state=draft", nil},
		{"?truth_model=categorical&state=draft", []string{"cat-b"}},
		{"?truth_model=multi_truth&state=draft", []string{"set-a"}},
	}
	for _, tc := range cases {
		got := list(tc.query)
		if len(got) != len(tc.want) {
			t.Errorf("%s -> %v, want %v", tc.query, got, tc.want)
			continue
		}
		for _, id := range tc.want {
			if _, ok := got[id]; !ok {
				t.Errorf("%s missing %s (got %v)", tc.query, id, got)
			}
		}
	}
	if rec := doReq(t, h, "GET", "/v1/campaigns?truth_model=fuzzy", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad truth_model filter: %d, want 400", rec.Code)
	}
}

// TestCategoricalKAndSeedHonored is the satellite-6 regression: with the
// infer.TDH type-assertion special case gone from campaign boot (engine
// construction owns the wiring), a categorical campaign still honors its
// per-campaign K for /task sizing and its seed for assigner sampling —
// deterministically, so two same-seed campaigns hand identical tasks.
func TestCategoricalKAndSeedHonored(t *testing.T) {
	m := mustOpen(t, t.TempDir())
	defer m.Close()
	h := m.Handler()

	for _, id := range []string{"seed-a", "seed-b"} {
		spec := Spec{ID: id, K: 2, Seed: 99, Assigner: "QASCA"}
		if rec := doReq(t, h, "POST", "/v1/campaigns", createBody(t, spec, StateLive, testDataset("same", 8))); rec.Code != 201 {
			t.Fatalf("create %s: %d: %s", id, rec.Code, rec.Body.String())
		}
	}

	tasks := func(id, worker string) []string {
		t.Helper()
		rec := doReq(t, h, "GET", "/v1/campaigns/"+id+"/task?worker="+worker, "")
		if rec.Code != 200 {
			t.Fatalf("%s task: %d: %s", id, rec.Code, rec.Body.String())
		}
		var out struct {
			Tasks []struct {
				Object string `json:"object"`
			} `json:"tasks"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		objs := make([]string, len(out.Tasks))
		for i, tk := range out.Tasks {
			objs[i] = tk.Object
		}
		return objs
	}

	a := tasks("seed-a", "w1")
	b := tasks("seed-b", "w1")
	if len(a) != 2 {
		t.Fatalf("K=2 campaign handed %d tasks: %v", len(a), a)
	}
	if !equalStrings(a, b) {
		t.Fatalf("same seed, same dataset, different assignments: %v vs %v", a, b)
	}

	// The persisted meta carries the knobs across restarts.
	c, _ := m.Get("seed-a")
	meta := c.Meta()
	if meta.K != 2 || meta.Seed != 99 || meta.TruthModel != string(engine.Categorical) {
		t.Fatalf("meta = %+v", meta)
	}
}

// TestEndToEndTruthModelsCrashRecovery is the acceptance test: one campaign
// per truth model created over the v1 API, concurrent workers ingesting
// typed answers into all three, a kill -9 (the manager is abandoned without
// Close, so nothing flushes gracefully), and a reopen that must replay
// every acknowledged answer — zero loss, typed payloads intact, per-model
// /truths shapes served from the recovered state.
func TestEndToEndTruthModelsCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir)
	h := m.Handler()

	const objects = 10
	specs := []Spec{
		{ID: "e2e-cat", OpenAnswers: true},
		{ID: "e2e-num", TruthModel: "numeric", OpenAnswers: true},
		{ID: "e2e-set", TruthModel: "multi_truth", Inferencer: "DART", OpenAnswers: true},
	}
	datasets := map[string]*data.Dataset{
		"e2e-cat": testDataset("e2e-cat", objects),
		"e2e-num": numericDataset("e2e-num", objects),
		"e2e-set": testDataset("e2e-set", objects),
	}
	for _, spec := range specs {
		if rec := doReq(t, h, "POST", "/v1/campaigns",
			createBody(t, spec, StateLive, datasets[spec.ID])); rec.Code != 201 {
			t.Fatalf("create %s: %d: %s", spec.ID, rec.Code, rec.Body.String())
		}
	}

	// numericMAE reads the numeric campaign's error against its gold
	// standard from /stats.
	numericMAE := func(h http.Handler) float64 {
		t.Helper()
		var st struct {
			Quality map[string]float64 `json:"quality"`
		}
		body := doReq(t, h, "GET", "/v1/campaigns/e2e-num/stats", "").Body.Bytes()
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("numeric stats = %s (err %v)", body, err)
		}
		mae, ok := st.Quality["mae"]
		if !ok {
			t.Fatalf("numeric stats carry no mae: %s", body)
		}
		return mae
	}
	sourcesOnlyMAE := numericMAE(h)

	// answerBody builds the model-typed payload for (worker w, object o).
	// The numeric crowd is honest: its readings straddle the gold 10.2.
	answerBody := func(id string, w, o int) string {
		worker := fmt.Sprintf("w%02d", w)
		switch id {
		case "e2e-num":
			object := fmt.Sprintf("%s-n%02d", id, o)
			reading := [...]float64{10.125, 10.175, 10.225, 10.275}[w]
			if o%2 == 0 { // alternate the two numeric spellings
				return fmt.Sprintf(`{"worker":%q,"object":%q,"num":%g}`, worker, object, reading)
			}
			return fmt.Sprintf(`{"worker":%q,"object":%q,"value":"%g"}`, worker, object, reading)
		case "e2e-set":
			object := fmt.Sprintf("%s-o%02d", id, o)
			return fmt.Sprintf(`{"worker":%q,"object":%q,"values":["NY","USA"]}`, worker, object)
		default:
			object := fmt.Sprintf("%s-o%02d", id, o)
			return fmt.Sprintf(`{"worker":%q,"object":%q,"value":"NY"}`, worker, object)
		}
	}

	// Concurrent ingest: 4 workers per campaign, each answering every
	// object. Every (worker, object) pair is distinct, so every submission
	// must be acknowledged.
	const workersPer = 4
	var acked [3]atomic.Int64
	var wg sync.WaitGroup
	for ci, spec := range specs {
		for w := 0; w < workersPer; w++ {
			wg.Add(1)
			go func(ci int, id string, w int) {
				defer wg.Done()
				for o := 0; o < objects; o++ {
					rec := doReq(t, h, "POST", "/v1/campaigns/"+id+"/answer", answerBody(id, w, o))
					if rec.Code != 200 {
						t.Errorf("%s w%d o%d: %d: %s", id, w, o, rec.Code, rec.Body.String())
						continue
					}
					acked[ci].Add(1)
				}
			}(ci, spec.ID, w)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Crash: abandon the manager without Close. Nothing was flushed beyond
	// the per-answer durable ack.
	m2 := mustOpen(t, dir)
	defer m2.Close()
	h2 := m2.Handler()

	for ci, spec := range specs {
		c, ok := m2.Get(spec.ID)
		if !ok {
			t.Fatalf("campaign %s not rediscovered", spec.ID)
		}
		if c.State() != StateLive {
			t.Fatalf("%s state = %s, want live", spec.ID, c.State())
		}
		wantModel := spec.TruthModel
		if wantModel == "" {
			wantModel = string(engine.Categorical)
		}
		if c.Meta().TruthModel != wantModel {
			t.Fatalf("%s truth_model = %q, want %q", spec.ID, c.Meta().TruthModel, wantModel)
		}
		rec := c.Recovered()
		if int64(rec.Answers) != acked[ci].Load() || rec.Skipped != 0 || rec.Duplicates != 0 {
			t.Fatalf("%s recovered %+v, want %d answers with zero loss", spec.ID, rec, acked[ci].Load())
		}
		// Replayed answers are live state: resubmission is a duplicate.
		if rec := doReq(t, h2, "POST", "/v1/campaigns/"+spec.ID+"/answer",
			answerBody(spec.ID, 0, 0)); rec.Code != 409 {
			t.Fatalf("%s resubmission after recovery: %d, want 409: %s", spec.ID, rec.Code, rec.Body.String())
		}
	}

	// The recovered states serve their per-model /truths shapes.
	var cat map[string]string
	body := doReq(t, h2, "GET", "/v1/campaigns/e2e-cat/truths", "").Body.Bytes()
	if err := json.Unmarshal(body, &cat); err != nil || len(cat) != objects {
		t.Fatalf("categorical truths = %s (err %v)", body, err)
	}
	var num map[string]float64
	body = doReq(t, h2, "GET", "/v1/campaigns/e2e-num/truths", "").Body.Bytes()
	if err := json.Unmarshal(body, &num); err != nil || len(num) != objects {
		t.Fatalf("numeric truths = %s (err %v)", body, err)
	}
	// The workers' readings cluster around 10.2; the replayed answers must
	// pull CRH well below the biased source's 19.
	if est := num["e2e-num-n00"]; est <= 0 || est >= 19 {
		t.Fatalf("numeric estimate = %g, want within the claimed range", est)
	}
	// The recovered fit weighs the workers as pseudo-sources beside the
	// sources, so it must sit closer to the gold standard than the
	// sources-only fit did, against the biased source.
	if mae := numericMAE(h2); mae >= sourcesOnlyMAE {
		t.Fatalf("numeric MAE %g with the workers' answers, %g from the sources alone: the answers must pull the estimate toward the truth", mae, sourcesOnlyMAE)
	}
	var sets map[string][]string
	body = doReq(t, h2, "GET", "/v1/campaigns/e2e-set/truths", "").Body.Bytes()
	if err := json.Unmarshal(body, &sets); err != nil || len(sets) != objects {
		t.Fatalf("multi-truth truths = %s (err %v)", body, err)
	}
	if len(sets["e2e-set-o00"]) == 0 {
		t.Fatalf("empty recovered truth set: %v", sets["e2e-set-o00"])
	}

	// Typed payloads survived the replay byte-for-byte: the numeric answers
	// carry Num, the multi-truth answers their full value set.
	numSrv, _ := m2.Get("e2e-num")
	foundNum := false
	for _, a := range numSrv.Server().Snapshot().Idx.DS.Answers {
		if a.Num != nil {
			foundNum = true
			break
		}
	}
	if !foundNum {
		t.Fatal("no replayed numeric answer kept its typed Num payload")
	}
	setSrv, _ := m2.Get("e2e-set")
	foundSet := false
	for _, a := range setSrv.Server().Snapshot().Idx.DS.Answers {
		if len(a.Values) == 2 {
			foundSet = true
			break
		}
	}
	if !foundSet {
		t.Fatal("no replayed multi-truth answer kept its value set")
	}
}
