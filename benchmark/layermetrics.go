package main

import (
	"fmt"
)

// layerMetrics fills in the per-layer metrics of a traced serving run from
// its three sources: (a) the /metrics and /stats deltas around the drive,
// (b) the layer replay and handler probes, run here, and (c) the runtime's
// MemStats. Figures of several campaigns add up (busy times, counts) or are
// taken from the primary campaign (per-call costs).
func layerMetrics(res *runResult, h *harness, dr driveResult, deltas []deltaScrape,
	before, after []statsPayload, replays []restartReplay) error {
	m := res.Metrics
	wall := dr.wall.Seconds()
	primary := h.in.campaigns[0]

	// (a) the scrape deltas, added up over the campaigns.
	hist := func(name string, labels ...string) (sum, count float64, err error) {
		for _, d := range deltas {
			s, c, err := d.histDelta(name, labels...)
			if err != nil {
				return 0, 0, err
			}
			sum, count = sum+s, count+c
		}
		return sum, count, nil
	}
	stage := func(name string) (sum, count float64, err error) {
		return hist("tdh_pipeline_stage_seconds", "stage", name)
	}
	refitS, refitN, err := stage("refit")
	if err != nil {
		return err
	}
	foldS, foldN, err := stage("fold")
	if err != nil {
		return err
	}
	planS, _, err := stage("plan_advance")
	if err != nil {
		return err
	}
	publishS, _, err := stage("publish")
	if err != nil {
		return err
	}
	drainS, _, err := stage("drain")
	if err != nil {
		return err
	}
	m["server.refit_busy_s"] = refitS
	m["server.refit_count"] = refitN
	m["server.refit_mean_ms"] = ratio(refitS, refitN) * 1000
	m["server.fold_busy_s"] = foldS
	m["server.fold_count"] = foldN
	m["server.plan_busy_s"] = planS
	m["server.publish_self_s"] = publishS - planS
	m["server.drain_busy_s"] = drainS
	// With several campaigns each has its own coordinator; the share is of
	// one core-drive, so two saturated coordinators read 2.
	busy := (drainS + foldS + publishS + refitS) / wall
	m["server.coordinator_busy_share"] = busy
	m["server.coordinator_unexplained_share"] = float64(len(deltas)) - busy

	counter := func(name string, labels ...string) (float64, error) {
		return sumDeltas(deltas, func(d deltaScrape) (float64, error) { return d.value(name, labels...) })
	}
	mean := func(dst string, scale float64, name string, labels ...string) error {
		s, c, err := hist(name, labels...)
		m[dst] = ratio(s, c) * scale
		return err
	}
	if err := mean("server.batch_mean", 1, "tdh_pipeline_batch_size"); err != nil {
		return err
	}
	if err := mean("server.visibility_mean_ms", 1000, "tdh_visibility_seconds"); err != nil {
		return err
	}
	if err := mean("server.answer_handler_mean_ms", 1000, "tdh_http_request_duration_seconds", "route", "/answer"); err != nil {
		return err
	}
	if err := mean("server.task_handler_mean_ms", 1000, "tdh_http_request_duration_seconds", "route", "/task"); err != nil {
		return err
	}
	if err := mean("eventlog.append_mean_ms", 1000, "tdh_eventlog_append_seconds"); err != nil {
		return err
	}
	if err := mean("eventlog.fsync_mean_ms", 1000, "tdh_eventlog_fsync_seconds"); err != nil {
		return err
	}
	if err := mean("eventlog.group_size_mean", 1, "tdh_eventlog_batch_size"); err != nil {
		return err
	}
	bytesWritten, err := counter("tdh_eventlog_bytes_written_total")
	if err != nil {
		return err
	}
	_, appends, err := hist("tdh_eventlog_append_seconds")
	if err != nil {
		return err
	}
	m["eventlog.bytes_per_event"] = ratio(bytesWritten, appends)
	if m["server.rejected_429"], err = counter("tdh_ingest_rejected_total"); err != nil {
		return err
	}
	for _, class := range []string{"4xx", "5xx"} {
		total := 0.0
		for _, route := range []string{"/task", "/answer", "/objects", "/records", "/truths", "/stats", "/refresh"} {
			v, err := counter("tdh_http_responses_total", "route", route, "class", class)
			if err != nil {
				return err
			}
			total += v
		}
		m["server.responses_"+class] = total
	}
	for i := range after {
		m["server.plan_builds"] += float64(after[i].PlanBuilds - before[i].PlanBuilds)
		m["server.plan_advances"] += float64(after[i].PlanAdvances - before[i].PlanAdvances)
		m["server.plan_fallbacks"] += float64(after[i].PlanFallbacks - before[i].PlanFallbacks)
	}
	m["server.queue_depth_max"] = float64(dr.poll.queueDepthMax)

	// (b) the boot path, from the restart replay of the primary campaign
	// (every campaign's replay is in the span tree and the unexplained row).
	var replayTotal, events float64
	for _, r := range replays {
		replayTotal += ms(r.total())
		events += float64(r.events)
		m["eventlog.replay_skipped"] += float64(r.skipped)
	}
	r0 := replays[0]
	m["data.load_file_ms"] = ms(r0.loadFile)
	m["data.new_index_ms"] = ms(r0.newIndex)
	m["engine.fit_ms"] = ms(r0.fit)
	m["core.em_iterations"] = float64(r0.iterations)
	m["assign.new_plan_ms"] = ms(r0.newPlan)
	m["assign.prewarm_ms"] = ms(r0.prewarm) // on a freshly built plan; after Advance it is ~0
	m["eventlog.replay_ms_per_kevent"] = ratio(ms(r0.replay), float64(r0.events)) * 1000
	m["campaign.open_unexplained_ms"] = m["campaign.open_ms"] - replayTotal

	// The coordinator's incremental path, cycle by cycle.
	for i, c := range h.in.campaigns {
		cy, err := replayCycles(h, c)
		if err != nil {
			return fmt.Errorf("cycle replay of %s: %w", c.id, err)
		}
		if c.numeric {
			m["engine.numeric_apply_ms"] = median(cy.numericApply)
			continue
		}
		if i != 0 {
			continue
		}
		m["engine.epoch_open_ms"] = median(cy.open)
		m["engine.epoch_fold_us_per_answer"] = ratio(sum(cy.fold), float64(cy.foldAnswers)) * 1000
		m["engine.epoch_seal_ms"] = median(cy.seal)
		m["assign.advance_ms"] = median(cy.advance)
		m["data.extend_ms"] = median(cy.extend)
		m["engine.grow_ms"] = median(cy.grow)
	}

	hp, err := probeHandlers(h, primary)
	if err != nil {
		return err
	}
	m["server.handle_task_us"] = median(hp.taskUS)
	m["server.handle_answer_us"] = median(hp.answerUS)
	m["server.handle_truths_ms"] = median(hp.truthsMS)
	assignUS, err := probeAssign(h, primary, replays[0])
	if err != nil {
		return err
	}
	m["assign.task_assign_us"] = median(assignUS)
	if m["campaign.route_overhead_us"], m["obs.scrape_ms"], err = probeRoute(h, primary); err != nil {
		return err
	}
	if m["eventlog.append_serial_us"], err = probeAppendSerial(h.dir); err != nil {
		return err
	}

	// (c) the runtime over the drive.
	m["proc.alloc_mb_per_kanswer"], m["proc.gc_cycles"], m["proc.gc_pause_total_ms"] =
		memDelta(&dr.memBefore, &dr.memAfter, dr.answers)

	// The generator about itself, and the client-side figures that are not
	// defined on every workload.
	m["gen.lag_p99_ms"] = supported(dr.lag, 0.99)
	m["gen.sessions"] = float64(dr.sessions)
	m["gen.polls"] = float64(dr.poll.polls)
	m["gen.failed_share"] = ratio(float64(dr.failed), float64(dr.attempted))
	m["gen.answer_p50_ms"] = median(dr.answer)
	m["gen.answer_p95_ms"] = supported(dr.answer, 0.95)
	m["gen.answer_pmax_ms"] = supported(dr.answer, 1)
	tasks, visible := flatten(dr.task), flatten(dr.poll.visibility)
	m["gen.task_p95_ms"] = supported(tasks, 0.95)
	m["gen.task_pmax_ms"] = supported(tasks, 1)
	m["gen.visibility_p95_ms"] = supported(visible, 0.95)
	m["gen.visibility_pmax_ms"] = supported(visible, 1)
	m["gen.task_due_p50_ms"] = median(dr.taskDue)
	m["gen.read_p50_ms"] = median(dr.read)
	m["gen.http_overhead_ms"] = m["gen.answer_p50_ms"] - m["server.answer_handler_mean_ms"]

	res.Counts = map[string]float64{
		"shards":               float64(after[0].Shards), // resolved ingest shards of the primary campaign
		"answers_accepted":     float64(dr.answers),
		"mutations_accepted":   float64(dr.mutations),
		"requests_attempted":   float64(dr.attempted),
		"requests_failed":      float64(dr.failed),
		"visibility_samples":   float64(len(visible)),
		"latency_samples_task": float64(len(tasks)),
		"events_replayed":      events,
		"drive_wall_s":         wall,
		"drive_cpu_s":          dr.cpu.Seconds(),
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func flatten(xss [][]float64) []float64 {
	var out []float64
	for _, xs := range xss {
		out = append(out, xs...)
	}
	return out
}

// medianOverCampaigns is the geometric mean over campaigns of each
// campaign's median. With two campaigns whose latencies differ (EAI against
// ME assignment, an epoch fold against the numeric fallback), the median of
// the pooled samples sits between two modes and jumps with the mix; the
// per-campaign medians do not, and their geometric mean moves by the same
// share when either campaign gets slower by a given share, though one is
// ten times the other.
func medianOverCampaigns(xss [][]float64) float64 {
	var meds []float64
	for _, xs := range xss {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geoMean(meds)
}
