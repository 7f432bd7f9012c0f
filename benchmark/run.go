package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"repro/internal/eval"
)

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Checks    []check            `json:"checks"`
	Counts    map[string]float64 `json:"counts,omitempty"`
	spans     []span
}

func (r *runResult) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok || format != "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// correct reports whether every check passed.
func (r *runResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// accuracyFloor is the lowest final accuracy a run may report, per
// workload: the lowest value seen over the calibration seeds at the commit
// that introduced the benchmark, minus 0.05. It catches a change that
// trades quality for speed even where set-up accuracy is already low.
var accuracyFloor = map[string]float64{
	"ingest_refit":   0.78,
	"ingest_publish": 0.89,
	"mixed_tenants":  0.94,
	"crowd_batch":    0.92,
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (ru_maxrss is KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// categoricalAccuracy scores a categorical /truths body against bench-side
// gold.
func categoricalAccuracy(c *campaignInput, truthsBody []byte) (float64, time.Duration, error) {
	var truths map[string]string
	if err := json.Unmarshal(truthsBody, &truths); err != nil {
		return 0, 0, fmt.Errorf("decoding /truths of %s: %w", c.id, err)
	}
	t := time.Now()
	sc := eval.Evaluate(c.gold, c.goldIdx, truths)
	return sc.Accuracy, time.Since(t), nil
}

// runServing runs one serving workload once: set up, drive, refresh,
// restart, check, and — when traced — replay the layers.
func runServing(p params, root string, traced bool) (*runResult, error) {
	res := &runResult{Workload: p.workload, Seed: p.seed, Traced: traced, Metrics: map[string]float64{}}
	var rec *recorder
	if traced {
		rec = newRecorder(fmt.Sprintf("%s-seed%d", p.workload, p.seed))
	}

	// Set-up, setupsBefore times over; the last one stays up. Every one-off
	// operation a run times starts from a collected heap, so that where the
	// garbage collector stands does not depend on what the benchmark did last.
	rot := p.rotations()
	var setups []float64
	timedSetUp := func() (*harness, error) {
		runtime.GC()
		t := time.Now()
		h, err := setUp(p, root, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		return h, nil
	}
	var h *harness
	for i := 0; i < setupsBefore; i++ {
		if h != nil {
			h.tearDown()
		}
		var err error
		if h, err = timedSetUp(); err != nil {
			return nil, err
		}
	}
	defer h.tearDown()
	primary := h.in.campaigns[0]

	body, err := h.get(primary, "truths")
	if err != nil {
		return nil, err
	}
	accSetup, _, err := categoricalAccuracy(primary, body)
	if err != nil {
		return nil, err
	}

	// Scrape (a): every campaign's /metrics and /stats around the drive.
	n := len(h.in.campaigns)
	deltas := make([]deltaScrape, n)
	statsBefore := make([]statsPayload, n)
	statsAfter := make([]statsPayload, n)
	for i, c := range h.in.campaigns {
		if deltas[i].before, err = h.scrapeCampaign(c); err != nil {
			return nil, err
		}
		if statsBefore[i], err = h.stats(c); err != nil {
			return nil, err
		}
	}
	dr, err := h.drive()
	if err != nil {
		return nil, fmt.Errorf("drive: %w", err)
	}
	for i, c := range h.in.campaigns {
		if deltas[i].after, err = h.scrapeCampaign(c); err != nil {
			return nil, err
		}
		if statsAfter[i], err = h.stats(c); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed = dr.attempted, dr.failed
	// The high-water mark of set-up and drive: the refreshes, set-ups,
	// restarts and replays that follow are the benchmark's own repeats.
	peakRSS := peakRSSMB()
	if dr.answers == 0 {
		return nil, fmt.Errorf("drive: no answer was accepted (first failure: %s)", dr.firstFailure)
	}

	// Forced refresh, then the live truths everything is checked against.
	var refreshTook time.Duration
	for j, c := range h.in.campaigns {
		d, err := h.refresh(c)
		if err != nil {
			return nil, err
		}
		if j == 0 {
			refreshTook = d
		}
	}
	live := map[string][]byte{}
	for _, c := range h.in.campaigns {
		if body, err = h.get(c, "truths"); err != nil {
			return nil, err
		}
		if live[c.id], err = canonicalBody(body); err != nil {
			return nil, err
		}
	}
	accFinal, evalTook, err := categoricalAccuracy(primary, live[primary.id])
	if err != nil {
		return nil, err
	}

	// Restart: close everything, then reopen the directory rot times, with a
	// throwaway instance set up before each, so that both metrics are sampled
	// over the whole time the repeats take. In between, the single-threaded
	// reference: the boot path re-enacted call by call.
	h.stopServing()
	var restarts, opens []float64
	var last reopened
	replays := make([]restartReplay, n)
	for i := 0; i < rot; i++ {
		spare, err := timedSetUp()
		if err != nil {
			return nil, err
		}
		spare.tearDown()
		runtime.GC()
		if last, err = h.reopen(); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		restarts = append(restarts, last.took.Seconds())
		opens = append(opens, ms(last.openTook))
		if i != rot/2 {
			continue
		}
		for j, c := range h.in.campaigns {
			if replays[j], err = replayRestart(h, c); err != nil {
				return nil, fmt.Errorf("restart replay of %s: %w", c.id, err)
			}
			if !traced {
				// Only the traced run's assign probe needs the rebuilt state;
				// holding it would have the remaining reopens run in a larger heap.
				replays[j].idx, replays[j].st, replays[j].plan = nil, nil, nil
			}
		}
	}

	// ---- correctness gate ----
	res.check("failed_share == 0", dr.failed == 0, "%d of %d requests failed; first: %s", dr.failed, dr.attempted, dr.firstFailure)
	for i, c := range h.in.campaigns {
		accepted := statsAfter[i].Answers
		reTruths, err := canonicalBody(last.truths[c.id])
		if err != nil {
			return nil, err
		}
		differ := diffKeys(reTruths, live[c.id])
		res.check("replay == live: "+c.id, differ == 0,
			"%d objects differ between the live refresh and the reopened campaign", differ)
		res.check("replayed == accepted: "+c.id, last.replayed[c.id] == accepted,
			"reopened campaign replayed %d answers, the live one accepted %d", last.replayed[c.id], accepted)
		differ = diffKeys(replays[i].truths, live[c.id])
		res.check("cold fit == live: "+c.id, differ == 0,
			"%d objects differ between the live refresh and a cold engine.Fit over dataset + log", differ)
	}
	visCount, err := sumDeltas(deltas, func(d deltaScrape) (float64, error) { return d.value("tdh_visibility_seconds_count") })
	if err != nil {
		return nil, err
	}
	res.check("one visibility observation per accepted item", int(visCount) == dr.answers+dr.mutations,
		"Δtdh_visibility_seconds_count = %d, accepted answers + mutations = %d", int(visCount), dr.answers+dr.mutations)
	res.check("every sampled item became visible", dr.poll.unresolved == 0, "%d sampled items never became visible", dr.poll.unresolved)
	res.check("accuracy >= accuracy at set-up", accFinal >= accSetup, "final %.4f, at set-up %.4f", accFinal, accSetup)
	if p.scale == 1 {
		floor := accuracyFloor[p.workload]
		res.check("accuracy >= pinned floor", accFinal >= floor, "final %.4f, floor %.4f", accFinal, floor)
	}

	// ---- end-to-end metrics ----
	m := res.Metrics
	m["setup_s"] = typical(setups)
	m["answers_per_s"] = float64(dr.answers) / dr.wall.Seconds()
	m["task_p50_ms"] = medianOverCampaigns(dr.task)
	m["visibility_p50_ms"] = medianOverCampaigns(dr.poll.visibility)
	m["restart_s"] = typical(restarts)
	m["cpu_s_per_kanswer"] = dr.cpu.Seconds() / float64(dr.answers) * 1000
	m["accuracy"] = accFinal

	if traced {
		m["campaign.create_ms"] = h.createMS
		m["synth.generate_ms"] = h.generateMS
		m["eval.evaluate_ms"] = ms(evalTook)
		m["server.refresh_ms"] = ms(refreshTook)
		m["campaign.open_ms"] = median(opens)
		if err := layerMetrics(res, h, dr, deltas, statsBefore, statsAfter, replays); err != nil {
			return nil, err
		}
		res.spans = rec.snapshot()
		spanShare := spanOverhead(len(res.spans), dr.cpu)
		m["gen.trace_overhead_share"] = spanShare
	}
	m["peak_rss_mb"] = peakRSS
	return res, nil
}

// spanOverhead estimates the share of the drive's CPU the span recorder
// itself took: the measured cost of recording one span times the spans
// recorded. (The multi-run mode also prints the run-difference form: traced
// run against the untraced median.)
func spanOverhead(spans int, driveCPU time.Duration) float64 {
	if driveCPU <= 0 {
		return 0
	}
	probe := newRecorder("probe")
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		now := time.Now()
		probe.add("probe", 0, now, now)
	}
	per := time.Since(t0) / n
	return float64(per) * float64(spans) / float64(driveCPU)
}

// sumDeltas adds one figure up over every campaign's scrape delta.
func sumDeltas(ds []deltaScrape, f func(deltaScrape) (float64, error)) (float64, error) {
	total := 0.0
	for _, d := range ds {
		v, err := f(d)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// numericTolerance is how far two numeric truths may differ, relative to
// their size, and still count as equal: the live coordinator appends answers
// in shard-drain order and the log holds them in commit order, so a numeric
// estimator sums the same claims in another order after a restart.
// Categorical truths are compared exactly.
const numericTolerance = 1e-9

// diffKeys counts the objects whose truths differ between two /truths
// payloads: strings and lists exactly, numbers within numericTolerance.
func diffKeys(a, b []byte) int {
	var ma, mb map[string]any
	if json.Unmarshal(a, &ma) != nil || json.Unmarshal(b, &mb) != nil {
		return -1
	}
	n := 0
	for k, v := range ma {
		w, ok := mb[k]
		if !ok {
			n++
			continue
		}
		x, isNum := v.(float64)
		y, alsoNum := w.(float64)
		switch {
		case isNum && alsoNum:
			if math.Abs(x-y) > numericTolerance*math.Max(math.Abs(x), math.Abs(y)) {
				n++
			}
		case !reflect.DeepEqual(v, w):
			n++
		}
	}
	for k := range mb {
		if _, ok := ma[k]; !ok {
			n++
		}
	}
	return n
}

// memDelta is what the Go runtime did over the drive.
func memDelta(before, after *runtime.MemStats, answers int) (allocMBPerK, gcCycles, pauseMS float64) {
	allocMBPerK = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(answers) * 1000
	gcCycles = float64(after.NumGC - before.NumGC)
	pauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return
}
