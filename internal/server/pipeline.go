package server

import (
	"maps"
	"slices"
	"strconv"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/obs/trace"
)

// The inference pipeline decouples answer ingestion from inference. POST
// /answer (and the open-world mutation endpoints) put each accepted item on
// one FIFO ingest queue and nudge the coordinator. One background
// coordinator goroutine drains the queue, folds the cycle's answers through
// one engine epoch (engine.EpochFolder: every engine's incremental update is
// object-local) and publishes the sealed epoch as a single immutable
// Snapshot — readers always see one consistent (index, state, plan) tuple.
// An engine with no incremental path opens no epoch, grows no state and
// keeps serving its last fit with the index that fit was shaped by; the
// items such a cycle drained — answers and growth alike — stay behind the
// visibility watermark until the refit that absorbs them.
//
// A cycle costs what it touched: opening a TDH epoch clones page tables and
// the fold copies the pages of 256 objects its answers land in (core.Model.
// Clone), sealing copies nothing (the published result is a view over the
// sealed state, see engine.State.Res), and the snapshot's assignment plan is
// Advance'd around the epoch's touched objects — O(batch · (page + chunk +
// log |O|)), the persistent arrays and rankings of assign.Plan — instead of
// rebuilt from scratch (O(Σ|Vo| + |O| log |O|)); every publish prewarms the
// plan in the pipeline goroutine so no /task request ever pays a plan build
// in-line. Full refits — the MAP-EM from scratch (core.Run: always a cold,
// deterministic function of the dataset, so a replayed log refits to the
// state the live process published), fanned out over the cores once the
// index is large enough to pay for it — are debounced behind a RefitPolicy
// and run beside the coordinator, at most one at a time. When the policy
// fires, the coordinator cuts a frozen prefix of its working dataset and
// fits it on its own goroutine (launchFit), and keeps draining, folding and
// publishing against the installed fit meanwhile. When the fit lands, the
// coordinator installs it, folds the answers drained since the cut through
// one epoch and publishes (land): the state a refit at the cut followed by
// one fold gives. In Koch & Olteanu's terms a fold conditions the published
// state with the trust parameters held fixed and a refit re-estimates them,
// so neither waits for the other. Growth drained during a fit changes the
// object set the fit was cut from, so that result is discarded and a
// synchronous refit covers everything; POST /refresh and Close wait out any
// fit in flight, and a refresh (like the boot fit) then refits
// synchronously.

// RefitPolicy controls when the pipeline escalates from incremental
// confidence updates to a full EM refit, and how ingestion is buffered.
// Zero-value fields take the defaults documented per field. Both refit
// triggers run from the installed fit: a refit starts once either fires and
// no other is in flight.
type RefitPolicy struct {
	// MaxAnswers triggers a full refit once this many answers and mutations
	// were drained since the last fit was installed (default 64; <0
	// disables count-based refits).
	MaxAnswers int
	// MaxStaleness triggers a full refit once the oldest answer or mutation
	// the installed fit has not seen is older than this (default 2s; <0
	// disables staleness refits).
	MaxStaleness time.Duration
	// BatchSize caps how many queued items (answers and mutations) one
	// coordinator cycle drains before publishing a snapshot (default 64).
	BatchSize int
	// QueueSize is the ingest queue's buffer; /answer blocks (backpressure)
	// while it is full (default 1024).
	QueueSize int
	// RejectQueueDepth, when > 0, is the admission-control bound: POST
	// /answer returns 429 with a Retry-After header (and increments
	// tdh_ingest_rejected_total) once the ingest queue holds at least this
	// many accepted-but-unfolded items, instead of blocking the connection
	// until the queue drains. 0 keeps the default blocking backpressure.
	RejectQueueDepth int
}

const (
	defaultMaxAnswers   = 64
	defaultMaxStaleness = 2 * time.Second
	defaultBatchSize    = 64
	defaultQueueSize    = 1024
)

func (p RefitPolicy) withDefaults() RefitPolicy {
	if p.MaxAnswers == 0 {
		p.MaxAnswers = defaultMaxAnswers
	}
	if p.MaxStaleness == 0 {
		p.MaxStaleness = defaultMaxStaleness
	}
	if p.BatchSize <= 0 {
		p.BatchSize = defaultBatchSize
	}
	if p.QueueSize <= 0 {
		p.QueueSize = defaultQueueSize
	}
	return p
}

// refreshReq asks the pipeline for a synchronous full refit; the pipeline
// drains queued answers first and closes done after publishing.
type refreshReq struct {
	done chan *Snapshot
}

// ingestItem is one accepted unit of campaign growth queued for the
// pipeline: a crowd answer, or a dataset mutation (object / record add).
// Lineage rides along: seq is the item's ingest sequence number (assigned
// under the enqueue lock, so sequence order is exactly channel FIFO
// order), at is the accept timestamp the visibility histogram
// measures from, and tr is the sampled-request span recorder (nil for the
// unsampled majority) whose ownership transfers to the coordinator with the
// channel send.
type ingestItem struct {
	answer data.Answer // valid when mut is nil
	mut    *mutation
	seq    int64
	at     time.Time
	tr     *trace.Active
}

// mutation is an accepted open-world dataset mutation. Exactly one of
// record / candidates is set.
type mutation struct {
	object     string
	candidates []string     // add_object: seeded candidate values
	record     *data.Record // add_record
}

// pipeline is the state owned exclusively by the coordinator goroutine. No
// lock protects it: handlers communicate with it only through the ingest
// queue and read only the published snapshots.
type pipeline struct {
	s      *Server
	policy RefitPolicy

	work *data.Dataset // private copy the pipeline appends answers to
	idx  *data.Index   // index the published state is shaped by
	st   engine.State  // last published engine state

	round      int64
	applied    int // answers folded into the published snapshot
	mutApplied int // dataset mutations folded into the published snapshot
	sinceRefit int // answers + mutations drained since the installed fit
	// staleSince is when the oldest unit the installed fit has not seen was
	// drained; zero when the fit has seen every drained unit.
	staleSince time.Time
	backlog    bool    // the last drain left items queued (drain)
	fit        *fitJob // the refit in flight beside the coordinator, if any

	// Lineage accounting, all coordinator-owned. drainedSeq is the highest
	// ingest sequence drained; fitSeq is the one the installed fit covers.
	// A publish copies drainedSeq onto the snapshot as the visibility
	// watermark — unless held: the engine refused to fold or grow an item
	// drained since the installed fit (no epoch, no incremental growth), so
	// neither the published state nor its index reflects it, and the
	// watermark stays at what the fit covers until a fit that indexes it is
	// installed. cycle holds the drained items until the publish whose
	// watermark covers them completes them (visibility histogram + span
	// trees); stamps carries the cycle's stage timestamps for those spans.
	// lastVisible is the last publish that completed drained items — the
	// progress signal the stall watchdog checks against queue depth.
	drainedSeq  int64
	fitSeq      int64
	held        bool
	cycle       []itemMeta
	stamps      cycleStamps
	lastVisible time.Time
}

// fitJob is the one refit in flight beside the coordinator: a cold
// NewIndex + Engine.Fit over a frozen prefix of the working dataset, run on
// its own goroutine, which sends the result on done and exits. Everything
// but done is coordinator-owned.
type fitJob struct {
	done    chan fitResult // buffered for the one send, so the fit goroutine never blocks
	seq     int64          // drainedSeq at the cut: the items the fit covers
	answers int            // len(work.Answers) at the cut; the rest is the suffix land folds
	muts    int            // mutApplied at the cut: any more means growth the fit never saw
	// staleSince is when the oldest unit drained since the cut was drained,
	// the staleness deadline's start once the fit is installed.
	staleSince time.Time
	start      time.Time
}

// fitResult is what a fit beside the coordinator sends back.
type fitResult struct {
	idx *data.Index
	st  engine.State
}

// itemMeta is the coordinator-side record of one drained item awaiting its
// covering publish.
type itemMeta struct {
	seq int64
	at  time.Time
	tr  *trace.Active
}

// cycleStamps are the stage boundary timestamps of one coordinator cycle,
// recorded as the cycle runs and replayed into every sampled item's span
// tree when the publish completes.
type cycleStamps struct {
	drainStart, drainEnd time.Time
	foldStart, foldEnd   time.Time
	refit                bool // the fold stage was a full refit
	planStart, planEnd   time.Time
	pubStart, pubEnd     time.Time
}

// metrics shortcuts the pipeline's instrument lookups.
func (p *pipeline) metrics() *serverMetrics { return p.s.metrics }

// publish makes the pipeline's current state visible to readers, with its
// assignment plan already attached and prewarmed — built, reused or advanced
// in this goroutine so no /task request ever pays for it in-line:
//
//   - when refit is set — a fit was just installed, the boot fit included —
//     the plan is built from scratch;
//   - when the cycle left index and result untouched (an engine with no
//     incremental path publishing its previous state), the previous plan is
//     exact and is reused outright;
//   - otherwise the state delta is object-local — every engine folds and
//     grows through that contract — and the previous plan is Advance'd
//     around the touched object IDs.
//
//tdh:wallclock stage timings and PublishedAt are observability metadata; replayed state never reads them
func (p *pipeline) publish(touched []int, refit bool) {
	pubStart := time.Now()
	prev := p.s.current.Load()
	// The visibility watermark: everything drained so far is in the state
	// this snapshot publishes (every loop path folds what it drains before
	// the next drain) — unless the engine refused some of it since the
	// installed fit, which then still covers what it was cut at.
	wm := p.drainedSeq
	if p.held {
		wm = max(p.fitSeq, prev.Watermark)
	}
	sn := &Snapshot{
		Idx: p.idx, St: p.st, Res: p.st.Res(), Round: p.round,
		// PublishedAt is observability metadata (snapshot age in /stats);
		// replay rebuilds state from the log, never timestamps.
		//tdh:wallclock snapshot age metadata; never fed back into replayed state
		Answers: p.applied, Mutations: p.mutApplied, PublishedAt: time.Now(),
		Watermark: wm,
	}
	planStart := time.Now()
	p.stamps.planStart = planStart
	var plan *assign.Plan
	switch {
	case refit:
		plan = assign.NewPlan(sn.Idx, sn.Res)
		p.metrics().planBuilds.Inc()
	case sn.Idx == prev.Idx && sn.Res == prev.Res:
		plan = prev.Plan() // nothing moved: the previous plan is exact
	default:
		var adv bool
		plan, adv = prev.Plan().Advance(sn.Idx, sn.Res, touched)
		if adv {
			p.metrics().planAdvances.Inc()
		} else {
			p.metrics().planBuilds.Inc()
		}
	}
	plan.Prewarm()
	p.metrics().ueaiMax.Set(plan.UEAIMax())
	p.metrics().observeStage(stagePlan, planStart)
	p.stamps.planEnd = time.Now()
	sn.setPlan(plan)
	p.s.current.Store(sn)
	p.metrics().publishes[refit].Inc()
	p.metrics().observeStage(stagePublish, pubStart)
	p.stamps.pubStart, p.stamps.pubEnd = pubStart, time.Now()
	if d := p.stamps.pubEnd.Sub(pubStart); d >= slowPublishAfter && p.s.logEvery(&p.s.lastSlowLog, logRepeatEvery) {
		p.s.log.Warn("slow publish",
			"duration_ms", d.Milliseconds(), "round", p.round,
			"answers", p.applied, "objects", sn.Idx.NumObjects())
	}
	p.completeCycle(sn.PublishedAt, wm)
}

const (
	// slowPublishAfter is the publish-duration threshold for the slow-publish
	// warning. A publish is plan maintenance plus one pointer store, and plan
	// maintenance after a fold costs what the batch touched, so one this slow
	// is a from-scratch NewPlan (a refit, a fallback) or an O(|O|) growth
	// advance on a campaign large enough for that to fall behind ingest.
	slowPublishAfter = 500 * time.Millisecond
	// stallAfter is how long queued items may sit without the watermark
	// advancing before the stall warning fires.
	stallAfter = 2 * time.Second
	// logRepeatEvery rate-limits the recurring diagnostic warnings
	// (admission rejections, stalls, slow publishes, capped refits) to one
	// line per period.
	logRepeatEvery = 5 * time.Second
)

// completeCycle finishes the items made visible by the publish at pub, whose
// watermark is wm: every drained item at or below wm gets a visibility
// observation (accept → covering publish), and each sampled item's span
// recorder gets the cycle's stage spans before being finished into the
// trace ring. It also feeds the drain-rate estimate behind Retry-After.
// Called from every publish, so each item is completed exactly once, by the
// first publish that covers it; items a refit-only engine holds wait for
// the install of the fit that indexes them.
func (p *pipeline) completeCycle(pub time.Time, wm int64) {
	n := 0
	for n < len(p.cycle) && p.cycle[n].seq <= wm {
		n++
	}
	if n == 0 {
		return
	}
	st := &p.stamps
	m := p.metrics()
	for _, it := range p.cycle[:n] {
		m.visibility.Observe(pub.Sub(it.at).Seconds())
		if it.tr == nil {
			continue
		}
		it.tr.Child("queue", it.at, st.drainStart,
			trace.Attr{Key: "seq", Value: strconv.FormatInt(it.seq, 10)})
		it.tr.Child("drain", st.drainStart, st.drainEnd)
		if st.refit {
			it.tr.Child("refit", st.foldStart, st.foldEnd)
		} else {
			it.tr.Child("fold", st.foldStart, st.foldEnd)
		}
		it.tr.Child("plan_advance", st.planStart, st.planEnd)
		it.tr.Child("publish", st.pubStart, st.pubEnd)
		it.tr.Finish(st.pubEnd)
	}
	// EWMA (α=1/4) of per-item cycle cost, the drain-rate estimate 429
	// responses derive Retry-After from.
	if dur := st.pubEnd.Sub(st.drainStart); dur > 0 {
		per := dur.Nanoseconds() / int64(n)
		if old := p.s.drainNsPerItem.Load(); old > 0 {
			per = old + (per-old)/4
		}
		if per < 1 {
			per = 1
		}
		p.s.drainNsPerItem.Store(per)
	}
	p.lastVisible = pub
	p.cycle = p.cycle[:copy(p.cycle, p.cycle[n:])]
}

// checkStall fires the pipeline-stall warning when items are queued but no
// publish has made progress for stallAfter — the watermark equivalent of a
// wedged coordinator (an engine fold blocking, a synchronous refit
// monopolizing the loop).
//
//tdh:wallclock stall detection compares wall-clock progress timestamps; diagnostics only
func (p *pipeline) checkStall(now time.Time) {
	depth := p.s.queueDepth.Load()
	if depth == 0 {
		return
	}
	ref := p.lastVisible
	if ref.IsZero() {
		ref = p.s.startTime
	}
	if now.Sub(ref) < stallAfter || !p.s.logEvery(&p.s.lastStallLog, logRepeatEvery) {
		return
	}
	p.s.log.Warn("pipeline stalled: queued items but visibility watermark not advancing",
		"depth", depth, "stalled_seconds", now.Sub(ref).Seconds(), "round", p.round)
}

// fullRefit rebuilds the index from the whole working dataset and reruns
// the configured engine's full inference from scratch, on the coordinator.
// No fit may be in flight (awaitFit).
//
//tdh:wallclock refit duration is an observability histogram; replayed state never reads it
func (p *pipeline) fullRefit() {
	start := time.Now()
	p.idx = data.NewIndex(p.work)
	p.st = p.s.cfg.Engine.Fit(p.idx)
	p.metrics().observeStage(stageRefit, start)
	p.installed(p.drainedSeq, time.Time{})
	// When this refit is what makes drained items visible (the refresh
	// path, or items a held cycle drained), their span trees show the refit
	// as the fold stage.
	p.stamps.foldStart, p.stamps.foldEnd, p.stamps.refit = start, time.Now(), true
	p.publish(nil, true)
}

// installed resets the refit bookkeeping for a fit just made p.st: it
// covers every item up to seq, and staleSince is when the oldest unit it
// has not seen was drained (zero: none).
func (p *pipeline) installed(seq int64, staleSince time.Time) {
	p.round++
	p.fitSeq, p.held = seq, false
	p.sinceRefit, p.staleSince = 0, staleSince
	p.reportConvergence()
}

// launchFit starts a refit beside the coordinator. The cut is a frozen
// prefix of the working dataset: Records and Answers clipped to their
// length — the coordinator only appends past it — and Candidates, which it
// writes in place, cloned.
//
//tdh:wallclock refit duration is an observability histogram; replayed state never reads it
func (p *pipeline) launchFit() {
	prefix := *p.work
	prefix.Records = slices.Clip(p.work.Records)
	prefix.Answers = slices.Clip(p.work.Answers)
	prefix.Candidates = maps.Clone(p.work.Candidates)
	job := &fitJob{
		done: make(chan fitResult, 1), seq: p.drainedSeq,
		answers: len(prefix.Answers), muts: p.mutApplied, start: time.Now(),
	}
	eng, m := p.s.cfg.Engine, p.metrics()
	go func() {
		idx := data.NewIndex(&prefix)
		st := eng.Fit(idx)
		m.observeStage(stageRefit, job.start)
		job.done <- fitResult{idx: idx, st: st}
	}()
	p.fit = job
}

// fitDone is the in-flight fit's result channel, nil (never ready) when no
// fit is in flight.
func (p *pipeline) fitDone() <-chan fitResult {
	if p.fit == nil {
		return nil
	}
	return p.fit.done
}

// awaitFit waits out the fit in flight, if any, and discards it: the
// caller refits synchronously or is shutting down.
func (p *pipeline) awaitFit() {
	if p.fit != nil {
		<-p.fit.done
		p.fit = nil
	}
}

// land installs a fit that ran beside the coordinator and publishes it with
// a fresh plan: the fitted state, with the answers drained since the cut
// folded through one epoch — for a refit-only engine, which cannot fold
// them, the fit alone, with the watermark at the cut. Growth drained since
// the cut is not in the fit's index, so such a result is discarded for a
// synchronous refit over everything.
//
//tdh:wallclock fold-stage timing is observability only; replayed state never reads it
func (p *pipeline) land(res fitResult) {
	job := p.fit
	p.fit = nil
	if p.mutApplied != job.muts {
		p.fullRefit()
		return
	}
	p.idx, p.st = res.idx, res.st
	p.installed(job.seq, job.staleSince)
	if suffix := p.work.Answers[job.answers:]; len(suffix) > 0 {
		if ep, ok := p.s.cfg.Engine.NewEpoch(p.st, p.idx); ok {
			ep.Fold(suffix)
			p.st = ep.Seal()
		} else {
			p.held = true
		}
	}
	p.stamps.foldStart, p.stamps.foldEnd, p.stamps.refit = job.start, time.Now(), true
	p.publish(nil, true)
}

// reportConvergence exports how the refit's EM ended — evaluations run and
// the last one's max confidence change — and warns when it stopped at the
// evaluation cap instead of meeting its tolerance: such a fit is not a
// stationary point, however plausible its truths look. Only a state that
// carries a TDH model has anything to report.
func (p *pipeline) reportConvergence() {
	m, ok := p.st.Res().Model.(*core.Model)
	if !ok {
		return
	}
	p.metrics().emIterations.Set(float64(m.Iterations))
	p.metrics().emFinalDelta.Set(m.FinalDelta)
	if m.FinalDelta >= m.Opt.Tol && p.s.logEvery(&p.s.lastCapLog, logRepeatEvery) {
		p.s.log.Warn("refit stopped at the EM evaluation cap before meeting its tolerance",
			"iterations", m.Iterations, "final_delta", m.FinalDelta, "tol", m.Opt.Tol, "round", p.round)
	}
}

// ingest extends the dataset and counters with accepted answers, without
// touching the model (callers decide between an incremental publish and a
// full refit).
func (p *pipeline) ingest(batch []data.Answer) {
	p.work.Answers = append(p.work.Answers, batch...)
	p.markDirty(len(batch))
	p.applied += len(batch)
}

// markDirty advances the refit-policy counters by n drained units, which
// neither the installed fit nor the one in flight has seen.
//
//tdh:wallclock refit-scheduling heuristic; not part of logged or replayed state
func (p *pipeline) markDirty(n int) {
	if n == 0 {
		return
	}
	now := time.Now()
	if p.staleSince.IsZero() {
		p.staleSince = now
	}
	if p.fit != nil && p.fit.staleSince.IsZero() {
		p.fit.staleSince = now
	}
	p.sinceRefit += n
}

// apply folds one coordinator cycle — its answers plus its mutations — into
// the campaign state and publishes one snapshot covering all of it.
// Mutations first: they extend the index (data.Index.Extend) and re-seed the
// engine state (Engine.Grow) so the cycle's answers — and every /task after
// the publish — already see the new objects. Answers then fold through one
// epoch, which reports what it touched. An engine without an incremental
// path keeps publishing its previous state and index (stale confidences,
// fresh counters) and the cycle is held: the extended index is dropped, so
// every published state is shaped by the index published with it, and the
// additions — growth as well as answers — wait, with the watermark, for the
// NewIndex of the next fit cut after them.
//
//tdh:wallclock fold-stage timing is observability only; replayed state never reads it
func (p *pipeline) apply(answers []data.Answer, muts []*mutation) {
	if len(answers) == 0 && len(muts) == 0 {
		return
	}
	foldStart := time.Now()
	p.stamps.foldStart, p.stamps.refit = foldStart, false
	eng := p.s.cfg.Engine
	var touched []int
	if len(muts) > 0 {
		idx, grown := p.idx.Extend(p.work, p.stageMutations(muts))
		if st, ok := eng.Grow(p.st, idx, grown); ok {
			p.idx, p.st, touched = idx, st, grown
		} else {
			p.held = true // staged in p.work: the next refit's NewIndex covers them
		}
	}
	if len(answers) > 0 {
		p.ingest(answers)
		if ep, ok := eng.NewEpoch(p.st, p.idx); ok {
			ep.Fold(answers)
			p.st = ep.Seal()
			touched = append(touched, ep.Touched()...)
		} else {
			p.held = true
		}
		p.metrics().batchSize.Observe(float64(len(answers)))
	}
	p.metrics().observeStage(stageFold, foldStart)
	p.stamps.foldEnd = time.Now()
	p.publish(touched, false)
}

// stageMutations appends accepted mutations to the working dataset and the
// counters, returning them in data.Mutation form. Callers either Extend the
// live index with the result (apply) or let an imminent full refit absorb
// them (the refresh path).
func (p *pipeline) stageMutations(muts []*mutation) data.Mutation {
	mu := data.Mutation{}
	for _, m := range muts {
		if m.record != nil {
			p.work.Records = append(p.work.Records, *m.record)
			mu.Records = append(mu.Records, *m.record)
			continue
		}
		if p.work.Candidates == nil {
			p.work.Candidates = map[string][]string{}
		}
		p.work.Candidates[m.object] = append(p.work.Candidates[m.object], m.candidates...)
		if mu.Candidates == nil {
			mu.Candidates = map[string][]string{}
		}
		mu.Candidates[m.object] = append(mu.Candidates[m.object], m.candidates...)
	}
	p.markDirty(len(muts))
	p.mutApplied += len(muts)
	return mu
}

// shouldRefit applies the count/staleness policy (see RefitPolicy) when no
// fit is in flight and the installed one has not seen every drained unit.
func (p *pipeline) shouldRefit(now time.Time) bool {
	if p.fit != nil || p.staleSince.IsZero() {
		return false
	}
	if p.policy.MaxStaleness > 0 && now.Sub(p.staleSince) >= p.policy.MaxStaleness {
		return true
	}
	return p.policy.MaxAnswers > 0 && p.sinceRefit >= p.policy.MaxAnswers
}

// drain moves what is buffered on the ingest queue into the cycle's answers
// and mutations, in enqueue order, without blocking. limit caps the items
// taken (0 = unbounded, used during refresh and shutdown); p.backlog records
// whether the queue still held items afterwards, so the coordinator
// re-kicks itself instead of stalling a backlog. taken counts the items drained; callers release the
// depth counter by it only AFTER the drained batch is folded and published
// (releaseDepth), so queue depth — what /stats, /metrics and admission
// control read — covers the whole accepted-but-unfolded backlog, not just
// the channel buffer.
//
//tdh:wallclock drain-stage timing is observability only; replayed state never reads it
func (p *pipeline) drain(limit int) (answers []data.Answer, muts []*mutation, taken int) {
	start := time.Now()
	p.stamps.drainStart = start
	ch := p.s.ingestCh
loop:
	for limit <= 0 || taken < limit {
		select {
		case it := <-ch:
			taken++
			if it.mut != nil {
				muts = append(muts, it.mut)
			} else {
				answers = append(answers, it.answer)
			}
			// Sequence numbers follow channel order (assigned under the
			// enqueue lock), so the last drained seq is the max.
			p.drainedSeq = it.seq
			if !it.at.IsZero() {
				p.cycle = append(p.cycle, itemMeta{seq: it.seq, at: it.at, tr: it.tr})
			}
		default:
			break loop
		}
	}
	p.backlog = len(ch) > 0
	p.metrics().observeStage(stageDrain, start)
	p.stamps.drainEnd = time.Now()
	return answers, muts, taken
}

// releaseDepth retires drained items from the queue depth counter once
// their batch has been folded into a published snapshot.
func (p *pipeline) releaseDepth(taken int) { p.s.queueDepth.Add(-int64(taken)) }

// loop is the coordinator goroutine. It exits when Server.Close signals
// quit, after flushing every queued item into a final snapshot.
//
//tdh:pipeline the coordinator goroutine is the sole mutator of model, index and plan state
//tdh:wallclock the ticker and refit-staleness checks read the clock for scheduling only; logged state never does
func (p *pipeline) loop() {
	defer close(p.s.doneCh)
	tick := time.NewTicker(p.tickInterval())
	defer tick.Stop()
	for {
		select {
		case <-p.s.kickCh:
			answers, muts, taken := p.drain(p.policy.BatchSize)
			p.apply(answers, muts)
			if p.shouldRefit(time.Now()) {
				p.launchFit()
			}
			p.releaseDepth(taken)
			if p.backlog {
				p.s.kick() // backlog beyond the batch cap: schedule another cycle
			}
		case res := <-p.fitDone():
			p.land(res)
		case req := <-p.s.refreshCh:
			// No incremental answer pass here: the refit recomputes
			// everything the drained answers would have contributed.
			// Mutations still extend the working dataset first so the refit
			// covers them.
			p.awaitFit()
			answers, muts, taken := p.drain(0)
			if len(muts) > 0 {
				p.stageMutations(muts) // the refit below absorbs them
			}
			p.ingest(answers)
			p.fullRefit()
			p.releaseDepth(taken)
			req.done <- p.s.snap()
		case <-tick.C:
			if p.shouldRefit(time.Now()) {
				p.launchFit()
			}
			p.checkStall(time.Now())
		case <-p.s.quitCh:
			// Flush: every item accepted before Close was enqueued (Close
			// waits out in-flight accepts first), so one unbounded drain
			// folds the backlog into a final snapshot. A fit in flight is
			// waited out and discarded, so items a held cycle drained stay
			// held: no refit absorbs them before shutdown.
			p.awaitFit()
			answers, muts, taken := p.drain(0)
			p.apply(answers, muts)
			p.releaseDepth(taken)
			return
		}
	}
}

// tickInterval is the staleness check cadence: a fraction of MaxStaleness,
// or a slow idle tick when staleness refits are disabled.
func (p *pipeline) tickInterval() time.Duration {
	if p.policy.MaxStaleness > 0 {
		iv := p.policy.MaxStaleness / 4
		if iv < time.Millisecond {
			iv = time.Millisecond
		}
		return iv
	}
	return time.Second
}
