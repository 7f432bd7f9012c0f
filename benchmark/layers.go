package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"repro/internal/assign"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/eventlog"
	"repro/internal/server"
)

// The layer replay: after the drive the benchmark re-enacts, single-threaded
// and through public functions only, what the boot path and the coordinator
// did to this run's own dataset.json and answers.jsonl, with a span around
// every call. All calls into internal/... that the replay makes live in this
// file, so a later change to a layer's API has one place to follow.

// engineFor builds the engine and assigner a campaign was created with.
func engineFor(c *campaignInput) (engine.Engine, assign.Assigner, error) {
	spec := c.create.Spec
	tm, err := engine.ParseTruthModel(spec.TruthModel)
	if err != nil {
		return nil, nil, err
	}
	eng, err := engine.New(tm, spec.Inferencer, engine.Config{Seed: spec.Seed})
	if err != nil {
		return nil, nil, err
	}
	asg, err := engine.NewAssigner(tm, spec.Assigner)
	return eng, asg, err
}

// restartReplay is the boot path of one campaign, step by step.
type restartReplay struct {
	loadFile, replay, clone, newIndex, fit, newPlan, prewarm time.Duration

	events     int // answers + records + objects recovered from the log
	skipped    int
	iterations int    // EM iterations of the cold fit (0 for engines without a core.Model)
	truths     []byte // canonical JSON of the cold fit's truths

	// The run's final state, for the probe that needs it.
	idx  *data.Index
	st   engine.State
	plan *assign.Plan
}

func (r restartReplay) total() time.Duration {
	return r.loadFile + r.replay + r.clone + r.newIndex + r.fit + r.newPlan + r.prewarm
}

// replayRestart re-enacts campaign boot for one campaign — load the dataset,
// replay the log into it, copy it (server.New works on its own copy), index
// it, fit it cold, build and prewarm the plan — as one "restart" span tree.
// The cold fit is the single-threaded reference the live refresh is checked
// against.
func replayRestart(h *harness, c *campaignInput) (restartReplay, error) {
	var r restartReplay
	eng, _, err := engineFor(c)
	if err != nil {
		return r, err
	}
	rec := h.rec
	root := rec.open("restart", 0, time.Now())
	defer func() { rec.close(root, time.Now()) }()

	var ds *data.Dataset
	r.loadFile = rec.timed("data.load_file", root, func() {
		ds, err = data.LoadFile(h.campaignFile(c, "dataset.json"))
	})
	if err != nil {
		return r, err
	}
	var rr eventlog.ReplayResult
	r.replay = rec.timed("eventlog.replay", root, func() {
		rr, err = eventlog.Replay(h.campaignFile(c, "answers.jsonl"), ds)
	})
	if err != nil {
		return r, err
	}
	r.events, r.skipped = rr.Answers+rr.Records+rr.Objects, rr.Skipped
	r.clone = rec.timed("data.clone", root, func() { ds = ds.Clone() })
	r.newIndex = rec.timed("data.new_index", root, func() { r.idx = data.NewIndex(ds) })
	r.fit = rec.timed("engine.fit", root, func() { r.st = eng.Fit(r.idx) })
	r.newPlan = rec.timed("assign.new_plan", root, func() { r.plan = assign.NewPlan(r.idx, r.st.Res()) })
	r.prewarm = rec.timed("assign.prewarm", root, r.plan.Prewarm)
	if m, ok := r.st.Res().Model.(*core.Model); ok {
		r.iterations = m.Iterations
	}
	r.truths, err = canonicalJSON(r.st.Truths())
	return r, err
}

// canonicalJSON encodes v with sorted map keys, so two truth payloads can be
// compared byte for byte.
func canonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return canonicalBody(raw)
}

// canonicalBody re-encodes a JSON response body canonically.
func canonicalBody(body []byte) ([]byte, error) {
	var generic any
	if err := json.Unmarshal(body, &generic); err != nil {
		return nil, err
	}
	return json.Marshal(generic)
}

// readEvents parses a campaign's event log into its valid events, in order.
func readEvents(path string) ([]eventlog.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []eventlog.Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e eventlog.Event
		if json.Unmarshal(sc.Bytes(), &e) == nil && e.Validate() == nil {
			out = append(out, e)
		}
	}
	return out, sc.Err()
}

// Coordinator cycles re-enacted per campaign, and the events per cycle (the
// default fold batch).
const (
	replayCycleCount = 32
	replayCycleBatch = 64
)

// cycleReplay is the per-call cost of the coordinator's incremental path.
type cycleReplay struct {
	cycles                    int
	open, fold, seal, advance []float64 // ms per cycle
	foldAnswers               int
	extend, grow              []float64 // ms per growth batch
	numericApply              []float64 // ms per batch (numeric campaigns)
}

// replayCycles re-enacts up to replayCycleCount coordinator cycles over the
// head of the run's log, from the state the campaign booted with: per cycle,
// mutations extend the index and grow the state, then the cycle's answers
// fold through an epoch (NewEpoch = Model.Clone, Fold = ApplyAnswer, Seal =
// ResultFromModel) and the plan advances around the touched objects — or,
// for an engine without epochs, ApplyAnswers re-estimates. Each cycle is one
// "cycle" span tree.
func replayCycles(h *harness, c *campaignInput) (cycleReplay, error) {
	var r cycleReplay
	eng, _, err := engineFor(c)
	if err != nil {
		return r, err
	}
	ds, err := data.LoadFile(h.campaignFile(c, "dataset.json"))
	if err != nil {
		return r, err
	}
	events, err := readEvents(h.campaignFile(c, "answers.jsonl"))
	if err != nil {
		return r, err
	}
	rec := h.rec
	idx := data.NewIndex(ds)
	st := eng.Fit(idx)
	plan := assign.NewPlan(idx, st.Res())
	plan.Prewarm()
	folder, epochal := eng.(engine.EpochFolder)

	for off := 0; r.cycles < replayCycleCount && off < len(events); off += replayCycleBatch {
		chunk := events[off:min(off+replayCycleBatch, len(events))]
		var mu data.Mutation
		var answers []data.Answer
		for _, e := range chunk {
			switch e.Type {
			case eventlog.TypeAddRecord:
				ds.Records = append(ds.Records, e.Record())
				mu.Records = append(mu.Records, e.Record())
			case eventlog.TypeAddObject:
				if ds.Candidates == nil {
					ds.Candidates = map[string][]string{}
				}
				if mu.Candidates == nil {
					mu.Candidates = map[string][]string{}
				}
				ds.Candidates[e.Object] = append(ds.Candidates[e.Object], e.Candidates...)
				mu.Candidates[e.Object] = append(mu.Candidates[e.Object], e.Candidates...)
			default:
				answers = append(answers, e.Answer())
			}
		}
		cid := rec.open("cycle", 0, time.Now())
		var touched []int
		local := true
		if !mu.Empty() {
			r.extend = append(r.extend, ms(rec.timed("data.extend", cid, func() { idx, touched = idx.Extend(ds, mu) })))
			r.grow = append(r.grow, ms(rec.timed("engine.grow", cid, func() {
				if grown, ok := eng.Grow(st, idx, touched); ok {
					st, local = grown, epochal
				}
			})))
		}
		if len(answers) > 0 {
			ds.Answers = append(ds.Answers, answers...)
			folded := false
			if epochal {
				var ep engine.Epoch
				d := rec.timed("engine.epoch_open", cid, func() { ep, folded = folder.NewEpoch(st, idx) })
				if folded {
					r.open = append(r.open, ms(d))
					r.fold = append(r.fold, ms(rec.timed("engine.epoch_fold", cid, func() { ep.Fold(answers) })))
					r.seal = append(r.seal, ms(rec.timed("engine.epoch_seal", cid, func() { st = ep.Seal() })))
					r.foldAnswers += len(answers)
					for _, a := range answers {
						if oid, ok := idx.ObjectID(a.Object); ok {
							touched = append(touched, oid)
						}
					}
				}
			}
			if !folded {
				r.numericApply = append(r.numericApply, ms(rec.timed("engine.apply_answers", cid, func() {
					if next, ok := eng.ApplyAnswers(st, idx, answers); ok {
						st, local = next, false
					}
				})))
			}
		}
		r.advance = append(r.advance, ms(rec.timed("assign.advance", cid, func() {
			if local {
				plan, _ = plan.Advance(idx, st.Res(), touched)
			} else {
				plan = assign.NewPlan(idx, st.Res())
			}
		})))
		rec.timed("assign.prewarm", cid, plan.Prewarm)
		rec.close(cid, time.Now())
		r.cycles++
	}
	return r, nil
}

// handlerProbe is the cost of the request handlers with no network, no log
// and no manager in front: server.New on the run's seed dataset, requests
// served straight into a recorder.
type handlerProbe struct {
	taskUS, answerUS []float64
	truthsMS         []float64
}

// probeCalls is how many /answer calls the handler probe makes.
const probeCalls = 2000

func probeHandlers(h *harness, c *campaignInput) (handlerProbe, error) {
	var p handlerProbe
	eng, asg, err := engineFor(c)
	if err != nil {
		return p, err
	}
	ds, err := data.LoadFile(h.campaignFile(c, "dataset.json"))
	if err != nil {
		return p, err
	}
	srv, err := server.New(server.Config{
		Dataset: ds, Engine: eng, Assigner: asg, K: sessionK, Seed: c.create.Seed,
		Policy: server.RefitPolicy{MaxAnswers: -1, MaxStaleness: -1},
	})
	if err != nil {
		return p, err
	}
	defer srv.Close()
	handler := srv.Handler()
	serve := func(method, target string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		rr := httptest.NewRecorder()
		t := time.Now()
		handler.ServeHTTP(rr, req)
		return rr, time.Since(t)
	}
	for n, answered := 0, 0; answered < probeCalls && n < 4*probeCalls; n++ {
		w := h.in.workers[n%len(h.in.workers)]
		rr, d := serve(http.MethodGet, "/task?worker="+url.QueryEscape(w.Name), nil)
		if rr.Code != http.StatusOK {
			return p, fmt.Errorf("handler probe: GET /task: %d", rr.Code)
		}
		p.taskUS = append(p.taskUS, float64(d)/1e3)
		var tasks struct {
			Tasks []wireTask `json:"tasks"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &tasks); err != nil {
			return p, err
		}
		rng := sessionRNG(h.p.seed, 0, n)
		for _, t := range tasks.Tasks {
			body, known := c.answerBody(rng, w, t.Object)
			if !known {
				continue
			}
			rr, d := serve(http.MethodPost, "/answer", body)
			if rr.Code != http.StatusOK {
				return p, fmt.Errorf("handler probe: POST /answer: %d: %s", rr.Code, bytes.TrimSpace(rr.Body.Bytes()))
			}
			p.answerUS = append(p.answerUS, float64(d)/1e3)
			answered++
		}
	}
	for i := 0; i < 50; i++ {
		rr, d := serve(http.MethodGet, "/truths", nil)
		if rr.Code != http.StatusOK {
			return p, fmt.Errorf("handler probe: GET /truths: %d", rr.Code)
		}
		p.truthsMS = append(p.truthsMS, ms(d))
	}
	return p, nil
}

// probeAssign times the assigner alone for a worker with history against an
// attached, prewarmed plan — what a GET /task computes once the handler's
// bookkeeping is taken away. It works on the run's final state as the restart
// replay rebuilt it (dataset + log), where every pool worker has answered.
func probeAssign(h *harness, c *campaignInput, final restartReplay) ([]float64, error) {
	_, asg, err := engineFor(c)
	if err != nil {
		return nil, err
	}
	var us []float64
	for i := 0; i < 400; i++ {
		w := h.in.workers[i%len(h.in.workers)]
		ctx := &assign.Context{Idx: final.idx, Res: final.st.Res(), Plan: final.plan, Workers: []string{w.Name}, K: sessionK, Seed: int64(i)}
		t := time.Now()
		asg.Assign(ctx)
		us = append(us, float64(time.Since(t))/1e3)
	}
	return us, nil
}

// probeRoute measures what the manager's routing and lifecycle gate add to
// a request: GET /stats through the manager's handler against the same
// request on the campaign's bare server handler, both into a recorder.
// Returns the difference of the medians in microseconds, and the time of one
// aggregated GET /metrics scrape on the manager in milliseconds.
func probeRoute(h *harness, c *campaignInput) (overheadUS, scrapeMS float64, err error) {
	mgr, err := campaign.Open(h.dir, campaign.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer mgr.Close()
	got, ok := mgr.Get(c.id)
	if !ok || got.Server() == nil {
		return 0, 0, fmt.Errorf("route probe: campaign %s is not serving", c.id)
	}
	timeCalls := func(handler http.Handler, target string, n int) ([]float64, error) {
		var us []float64
		for i := 0; i < n; i++ {
			rr := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, target, nil)
			t := time.Now()
			handler.ServeHTTP(rr, req)
			us = append(us, float64(time.Since(t))/1e3)
			if rr.Code != http.StatusOK {
				return nil, fmt.Errorf("route probe: GET %s: %d", target, rr.Code)
			}
		}
		return us, nil
	}
	via, err := timeCalls(mgr.Handler(), "/v1/campaigns/"+c.id+"/stats", probeCalls)
	if err != nil {
		return 0, 0, err
	}
	bare, err := timeCalls(got.Server().Handler(), "/stats", probeCalls)
	if err != nil {
		return 0, 0, err
	}
	scrapes, err := timeCalls(mgr.Handler(), "/metrics", 20)
	if err != nil {
		return 0, 0, err
	}
	return median(via) - median(bare), median(scrapes) / 1e3, nil
}

// probeAppendSerial is the box's fsync floor: serial Log.Append calls on a
// fresh log in the run's directory, one fsync each, median in microseconds.
func probeAppendSerial(dir string) (float64, error) {
	path := filepath.Join(dir, "append-probe.jsonl")
	l, err := eventlog.Open(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer l.Close()
	var us []float64
	for i := 0; i < 500; i++ {
		a := data.Answer{Object: fmt.Sprintf("o%d", i), Worker: "w", Value: "v"}
		t := time.Now()
		if err := l.Append(a); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t))/1e3)
	}
	return median(us), nil
}
