package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/synth"
)

// scrapeMetrics GETs /metrics and returns the text body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestMetricsEndpoint drives real traffic through the handler and asserts
// the exposition covers every instrumented layer: HTTP latency histograms,
// pipeline stage durations, ingest counters, queue-depth and snapshot-age
// gauges.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)

	tasks := fetchTasks(t, ts.URL, "alice")
	if len(tasks) == 0 {
		t.Fatal("no tasks")
	}
	resp := postJSON(t, ts.URL+"/answer", map[string]string{
		"worker": "alice", "object": tasks[0].Object, "value": tasks[0].Candidates[0],
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /answer = %s", resp.Status)
	}
	// A synchronous refresh guarantees at least one drain/fold/publish and
	// one refit cycle is on the books before the scrape.
	if resp := postJSON(t, ts.URL+"/refresh", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /refresh = %s", resp.Status)
	}

	out := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"# TYPE tdh_http_request_duration_seconds histogram",
		`tdh_http_request_duration_seconds_bucket{route="/answer",le="+Inf"} 1`,
		`tdh_http_responses_total{class="2xx",route="/task"} 1`,
		"# TYPE tdh_pipeline_stage_seconds histogram",
		`tdh_pipeline_stage_seconds_count{stage="publish"}`,
		`tdh_pipeline_stage_seconds_count{stage="refit"}`,
		`tdh_pipeline_stage_seconds_count{stage="drain"}`,
		"tdh_answers_accepted_total 1",
		"tdh_ingest_queue_depth 0",
		"tdh_snapshot_age_seconds",
		`tdh_publishes_total{kind="refit"}`,
		"tdh_http_in_flight_requests 0",
		"# TYPE tdh_refit_truth_flips histogram",
		`tdh_refit_drift_bucket{param="mu",le="1e-07"}`,
		`tdh_refit_drift_count{param="source_trust"}`,
		`tdh_refit_drift_count{param="worker_trust"}`,
		"# TYPE tdh_refit_answers_threshold gauge",
		"# TYPE tdh_eai_evaluated histogram",
		"# TYPE tdh_eai_settled histogram",
		"# TYPE tdh_eai_pruned histogram",
		"# TYPE tdh_settled_objects gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The one /task ran EAI for a cold worker, at the prior-mean ψ: one
	// observation in each series. The plan answered it in closed form from
	// its cold-worker score ranking, so it read at least the K entries it
	// handed out, and neither pruned nor settled any evaluation.
	for _, id := range []string{"tdh_eai_evaluated_count", "tdh_eai_settled_count", "tdh_eai_pruned_count"} {
		if n := seriesValue(t, out, id); n != 1 {
			t.Errorf("%s %d, want 1", id, n)
		}
	}
	if n := seriesValue(t, out, "tdh_eai_evaluated_sum"); n < int64(len(tasks)) {
		t.Errorf("tdh_eai_evaluated_sum %d below the %d tasks served", n, len(tasks))
	}
	for _, id := range []string{"tdh_eai_settled_sum", "tdh_eai_pruned_sum"} {
		if n := seriesValue(t, out, id); n != 0 {
			t.Errorf("%s %d after one cold worker's /task, want 0", id, n)
		}
	}
	// The refresh landed a fit over the boot fit's state: one comparison at
	// least, the same count in every step-1 series.
	flips := seriesValue(t, out, "tdh_refit_truth_flips_count")
	if mu := seriesValue(t, out, `tdh_refit_drift_count{param="mu"}`); flips < 1 || mu != flips {
		t.Errorf("tdh_refit_truth_flips_count %d, tdh_refit_drift_count{param=\"mu\"} %d; want equal and at least 1", flips, mu)
	}
}

// seriesFloat returns the sample value of the series whose text-format
// identity (name plus any {labels}) is exactly id.
func seriesFloat(t *testing.T, exposition, id string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, id+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: %v", id, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no series %s", id)
	return 0
}

// seriesValue is seriesFloat for counters.
func seriesValue(t *testing.T, exposition, id string) int64 {
	t.Helper()
	return int64(seriesFloat(t, exposition, id))
}

// TestStatsReadsTheRegistry pins the single source of truth: the accepted
// answer, added object/record and plan build/advance/fallback counts in
// /stats are the very counters /metrics exports, and the "answers" ordinal
// POST /answer echoes comes from the same counter — every accepted answer
// gets a distinct one, increasing along each worker's own sequence.
func TestStatsReadsTheRegistry(t *testing.T) {
	s, ts, _ := newTestServer(t)

	const workers = 8
	tasks := make([][]Task, workers)
	total := 0
	for i := range tasks {
		tasks[i] = fetchTasks(t, ts.URL, fmt.Sprintf("sv-%d", i))
		total += len(tasks[i])
	}
	if total == 0 {
		t.Fatal("no tasks")
	}
	ordinals := make([][]int64, workers)
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, task := range tasks[i] {
				body, _ := json.Marshal(data.Answer{
					Worker: fmt.Sprintf("sv-%d", i), Object: task.Object, Value: task.Candidates[0]})
				resp, err := http.Post(ts.URL+"/answer", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var ack struct {
					Answers int64 `json:"answers"`
				}
				err = json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("POST /answer = %s (decode: %v)", resp.Status, err)
					return
				}
				ordinals[i] = append(ordinals[i], ack.Answers)
			}
		}(i)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for i, seq := range ordinals {
		for j, n := range seq {
			if n < 1 || n > int64(total) || seen[n] || (j > 0 && n <= seq[j-1]) {
				t.Fatalf("worker %d: answer ordinals %v not distinct and increasing within 1..%d", i, seq, total)
			}
			seen[n] = true
		}
	}
	if len(seen) != total {
		t.Fatalf("accepted %d of %d answers", len(seen), total)
	}

	value := tasks[0][0].Candidates[0]
	if resp := postJSON(t, ts.URL+"/objects", AddObjectRequest{Object: "sv-new", Candidates: []string{value}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /objects = %s", resp.Status)
	}
	if resp := postJSON(t, ts.URL+"/records", data.Record{Object: "sv-new", Source: "sv-src", Value: value}); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /records = %s", resp.Status)
	}
	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	out := scrapeMetrics(t, ts.URL)
	for _, c := range []struct {
		key    string
		stat   int64
		series string
	}{
		{"answers", int64(st.Answers), "tdh_answers_accepted_total"},
		{"added_objects", int64(st.AddedObjects), `tdh_mutations_accepted_total{kind="add_object"}`},
		{"added_records", int64(st.AddedRecords), `tdh_mutations_accepted_total{kind="add_record"}`},
		{"plan_builds", st.PlanBuilds, "tdh_plan_builds_total"},
		{"plan_advances", st.PlanAdvances, "tdh_plan_advances_total"},
		{"plan_fallbacks", st.PlanFallbacks, "tdh_plan_fallbacks_total"},
	} {
		if got := seriesValue(t, out, c.series); got != c.stat {
			t.Errorf("/stats %s = %d, /metrics %s = %d", c.key, c.stat, c.series, got)
		}
	}
	// The same rule for the stopping signal: tdh_ueai_max is the head bound of
	// the plan being served, nothing recomputed at scrape time.
	if got, head := seriesFloat(t, out, "tdh_ueai_max"), s.Snapshot().Plan().UEAIMax(); got != head || head <= 0 {
		t.Errorf("tdh_ueai_max = %v, the served plan's largest UEAI bound is %v", got, head)
	}
	if got, want := seriesFloat(t, out, "tdh_settled_objects"), s.Snapshot().Plan().Settled(); got != float64(want) || want <= 0 {
		t.Errorf("tdh_settled_objects = %v, the served plan settles %d objects", got, want)
	}
	if st.Answers != total || st.AddedObjects != 1 || st.AddedRecords != 1 || st.PlanBuilds < 1 {
		t.Errorf("stats = %d answers, %d objects, %d records, %d plan builds; want %d, 1, 1, >=1",
			st.Answers, st.AddedObjects, st.AddedRecords, st.PlanBuilds, total)
	}
}

// TestPlanGaugesAreEAIOnly: tdh_ueai_max and tdh_settled_objects read parts
// only the plan of an EAI campaign holds — the UEAI ranking, and the settled
// count that comes with the cold-worker cache. A campaign assigning by ME on
// the same TDH model publishes plans with the entropy ranking alone, so it
// reads both gauges as 0 through its boot build, the advances its folds
// publish and a refit's rebuild, where the EAI twin reads both positive: its
// plans never hold a settled count, so no cold-worker cache was built.
func TestPlanGaugesAreEAIOnly(t *testing.T) {
	for _, asg := range []assign.Assigner{assign.EAI{}, assign.ME{}} {
		eai := asg.Name() == "EAI"
		s, err := New(Config{
			Dataset: synth.Heritages(synth.HeritagesConfig{Seed: 3, Scale: 0.06}),
			Engine:  engine.NewCategorical(infer.NewTDH()), Assigner: asg, K: 3, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		check := func(stage string) {
			t.Helper()
			out := scrapeMetrics(t, ts.URL)
			ueai, settled := seriesFloat(t, out, "tdh_ueai_max"), seriesFloat(t, out, "tdh_settled_objects")
			plan := s.Snapshot().Plan()
			if ueai != plan.UEAIMax() || settled != float64(plan.Settled()) {
				t.Errorf("%s, %s: gauges read %v and %v, the served plan %v and %d", asg.Name(), stage, ueai, settled, plan.UEAIMax(), plan.Settled())
			}
			if (ueai > 0) != eai || (settled > 0) != eai {
				t.Errorf("%s, %s: tdh_ueai_max = %v, tdh_settled_objects = %v; want both positive under EAI alone", asg.Name(), stage, ueai, settled)
			}
		}
		check("boot")
		tasks := fetchTasks(t, ts.URL, "g-0")
		for _, task := range tasks {
			if resp := postJSON(t, ts.URL+"/answer", data.Answer{Worker: "g-0", Object: task.Object, Value: task.Candidates[0]}); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: POST /answer = %s", asg.Name(), resp.Status)
			}
		}
		waitApplied(t, s, len(tasks), 0)
		check("after folds")
		if _, err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
		check("after a refit")
		if st := s.Stats(); st.PlanAdvances < 1 || st.PlanFallbacks != 0 {
			t.Errorf("%s: %d plan advances, %d fallbacks; want >= 1 and 0", asg.Name(), st.PlanAdvances, st.PlanFallbacks)
		}
		ts.Close()
		s.Close()
	}
}

// TestEMGaugesReadTheModel pins the inference-health series to their one
// source, the published model: tdh_em_iterations and tdh_em_final_delta are
// the Iterations and FinalDelta of the last refit's *core.Model, a default
// fit reports convergence, and a fit cut short by MaxIter says so — in the
// gauges and in one rate-limited warning, however many refits hit the cap.
func TestEMGaugesReadTheModel(t *testing.T) {
	capped := infer.NewTDH()
	capped.Opt.MaxIter = 3
	for _, c := range []struct {
		name      string
		inf       infer.TDH
		converged bool
	}{
		{"converged", infer.NewTDH(), true},
		{"capped", capped, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var logs bytes.Buffer
			s, err := New(Config{
				Dataset:  synth.Heritages(synth.HeritagesConfig{Seed: 3, Scale: 0.06}),
				Engine:   engine.NewCategorical(c.inf),
				Assigner: assign.EAI{},
				Logger:   slog.New(slog.NewTextHandler(&logs, nil)),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			snap, err := s.Refresh() // a second refit after the boot fit
			if err != nil {
				t.Fatal(err)
			}
			m := snap.Res.Model.(*core.Model)
			out := scrapeMetrics(t, ts.URL)
			if got := seriesFloat(t, out, "tdh_em_iterations"); got != float64(m.Iterations) {
				t.Errorf("tdh_em_iterations = %v, the model ran %d", got, m.Iterations)
			}
			if got := seriesFloat(t, out, "tdh_em_final_delta"); got != m.FinalDelta {
				t.Errorf("tdh_em_final_delta = %v, the model ended at %v", got, m.FinalDelta)
			}
			if converged := m.FinalDelta < m.Opt.Tol; converged != c.converged {
				t.Errorf("converged = %v after %d evaluations (delta %v)", converged, m.Iterations, m.FinalDelta)
			}
			if !c.converged && m.Iterations != c.inf.Opt.MaxIter {
				t.Errorf("capped fit ran %d evaluations, MaxIter is %d", m.Iterations, c.inf.Opt.MaxIter)
			}
			want := 0
			if !c.converged {
				want = 1
			}
			if got := strings.Count(logs.String(), "EM evaluation cap"); got != want {
				t.Errorf("%d cap warnings for 2 refits, want %d:\n%s", got, want, logs.String())
			}
		})
	}
}

// slowEngine embeds the categorical TDH engine but sleeps before opening
// each epoch, holding every cycle's items in the accepted-but-unfolded
// window for at least delay.
type slowEngine struct {
	engine.Engine
	delay time.Duration
}

func (e slowEngine) NewEpoch(st engine.State, idx *data.Index) (engine.Epoch, bool) {
	time.Sleep(e.delay)
	return e.Engine.NewEpoch(st, idx)
}

// TestAdmissionControl asserts the RejectQueueDepth satellite end to end: a
// slow fold backs up the ingest queue, POST /answer starts returning 429
// with Retry-After, tdh_ingest_rejected_total counts it, and the depth
// counter drains back to zero once the backlog is folded.
func TestAdmissionControl(t *testing.T) {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.06})
	eng, err := engine.New(engine.Categorical, "TDH", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	asg, err := engine.NewAssigner(engine.Categorical, "EAI")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Dataset:     ds,
		Engine:      slowEngine{Engine: eng, delay: 40 * time.Millisecond},
		Assigner:    asg,
		K:           3,
		OpenAnswers: true,
		Policy: RefitPolicy{
			MaxAnswers:       -1, // no refits: keep every cycle on the slow path
			MaxStaleness:     -1,
			RejectQueueDepth: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	objects := ds.Objects()
	if len(objects) < 40 {
		t.Fatalf("dataset too small: %d objects", len(objects))
	}
	var got429 bool
	for i := 0; i < 40 && !got429; i++ {
		o := objects[i]
		v := ds.Records[0].Value
		for _, r := range ds.Records {
			if r.Object == o {
				v = r.Value
				break
			}
		}
		resp := postJSON(t, ts.URL+"/answer", map[string]string{
			"worker": "w-adm", "object": o, "value": v,
		})
		switch resp.StatusCode {
		case http.StatusOK, http.StatusUnprocessableEntity:
		case http.StatusTooManyRequests:
			got429 = true
			// Retry-After is derived from the observed drain rate, but it must
			// always be a positive integer number of seconds (RFC 9110
			// delay-seconds), bounded so clients neither hammer nor stall.
			ra := resp.Header.Get("Retry-After")
			if ra == "" {
				t.Error("429 without Retry-After header")
			} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 30 {
				t.Errorf("Retry-After = %q, want integer in [1, 30]", ra)
			}
		default:
			t.Fatalf("POST /answer #%d = %s", i, resp.Status)
		}
	}
	if !got429 {
		t.Fatal("queue never saturated: no 429 observed")
	}
	out := scrapeMetrics(t, ts.URL)
	if !strings.Contains(out, "tdh_ingest_rejected_total") || strings.Contains(out, "tdh_ingest_rejected_total 0\n") {
		t.Error("tdh_ingest_rejected_total did not count the rejection")
	}

	// The depth counter is enqueue/release accounting, so once the pipeline
	// folds the backlog it must return exactly to zero — the stable-snapshot
	// guarantee len(chan) could not give.
	deadline := time.Now().Add(5 * time.Second)
	for {
		depth := s.Stats().ShardQueueDepth[0]
		if depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest queue depth stuck at %d", depth)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
