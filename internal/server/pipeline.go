package server

import (
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
// An engine with no incremental path opens no epoch and keeps serving its
// last fit; the items such a cycle drained stay behind the visibility
// watermark until the refit that absorbs them.
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
// and also run entirely off the request path.
// A refit is the one stage whose cost grows with the whole campaign, and the
// coordinator is a single goroutine, so whatever is queued when one starts
// waits for all of it: the policy therefore never starts a count-triggered
// refit in front of a backlog (shouldRefit) — the cheap fold + publish
// cycles make the queued answers visible first, and the refit runs once the
// queue is empty or the staleness bound expires.

// RefitPolicy controls when the pipeline escalates from incremental
// confidence updates to a full EM refit, and how ingestion is buffered.
// Zero-value fields take the defaults documented per field.
//
// The two refit triggers are not symmetric. MaxStaleness is a deadline: once
// the oldest unrefitted answer is that old, the next coordinator cycle or
// tick refits, backlog or not. MaxAnswers is a batch size: it asks for a
// refit once enough answers accumulated, but while a drain leaves items
// queued the refit is deferred — the queue is folded and published first —
// until the queue is empty or MaxStaleness expires, whichever comes first.
// With staleness refits disabled nothing bounds the deferral, so the count
// trigger is then not deferred at all.
type RefitPolicy struct {
	// MaxAnswers triggers a full refit once this many answers accumulated
	// since the last one and no backlog is queued (default 64; <0 disables
	// count-based refits).
	MaxAnswers int
	// MaxStaleness triggers a full refit when the oldest unrefitted answer
	// is older than this (default 2s; <0 disables staleness refits, and with
	// them the deferral of count-based ones).
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
	idx  *data.Index   // index of the last full refit
	st   engine.State  // last published engine state

	round      int64
	applied    int // answers folded into the published snapshot
	mutApplied int // dataset mutations folded into the published snapshot
	sinceRefit int // answers + mutations since the last full refit
	staleSince time.Time
	backlog    bool // the last drain left items queued (drain)

	// Lineage accounting, all coordinator-owned. drainedSeq is the highest
	// ingest sequence drained; the next publish copies it onto the snapshot
	// as the visibility watermark. cycle holds the drained items until the
	// publish that makes them visible completes them (visibility histogram +
	// span trees); stamps carries the cycle's stage timestamps for those
	// spans. held is set when the engine refused to fold or grow a drained
	// item (no epoch, no incremental growth): the published state does not
	// reflect it, so publishes keep the previous watermark and hold cycle
	// until the next full refit absorbs it. lastVisible is the last publish
	// that completed drained items — the progress signal the stall watchdog
	// checks against queue depth.
	drainedSeq  int64
	held        bool
	cycle       []itemMeta
	stamps      cycleStamps
	lastVisible time.Time
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
//   - after a full refit (or the very first publish) the plan is built from
//     scratch;
//   - when the cycle left index and result untouched (an engine with no
//     incremental path publishing its previous state), the previous plan is
//     exact and is reused outright;
//   - otherwise the state delta is object-local — every engine folds and
//     grows through that contract — and the previous plan is Advance'd
//     around the touched object IDs.
//
//tdh:wallclock stage timings and PublishedAt are observability metadata; replayed state never reads them
func (p *pipeline) publish(touched []int) {
	pubStart := time.Now()
	prev := p.s.current.Load()
	// The visibility watermark: everything drained so far is in the state
	// this snapshot publishes (every loop path folds what it drains before
	// the next drain) — unless the engine refused some of it, which the
	// previous watermark then still describes.
	wm := p.drainedSeq
	if p.held {
		wm = prev.Watermark
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
	case prev == nil || p.sinceRefit == 0:
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
	p.metrics().publishes[p.sinceRefit == 0].Inc()
	p.metrics().observeStage(stagePublish, pubStart)
	p.stamps.pubStart, p.stamps.pubEnd = pubStart, time.Now()
	if d := p.stamps.pubEnd.Sub(pubStart); d >= slowPublishAfter && p.s.logEvery(&p.s.lastSlowLog, logRepeatEvery) {
		p.s.log.Warn("slow publish",
			"duration_ms", d.Milliseconds(), "round", p.round,
			"answers", p.applied, "objects", sn.Idx.NumObjects())
	}
	if !p.held {
		p.completeCycle(sn.PublishedAt)
	}
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

// completeCycle finishes the items made visible by the publish at pub: every
// drained item gets a visibility observation (accept → covering publish),
// and each sampled item's span recorder gets the cycle's stage spans before
// being finished into the trace ring. It also feeds the drain-rate estimate
// behind Retry-After. Called from every publish that is not held, so a
// cycle that folds and then immediately refits completes its items at the
// first publish — the one that made them visible — and the second finds the
// cycle empty, while items a held cycle drained wait for the refit's.
func (p *pipeline) completeCycle(pub time.Time) {
	if len(p.cycle) == 0 {
		return
	}
	st := &p.stamps
	m := p.metrics()
	for _, it := range p.cycle {
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
		per := dur.Nanoseconds() / int64(len(p.cycle))
		if old := p.s.drainNsPerItem.Load(); old > 0 {
			per = old + (per-old)/4
		}
		if per < 1 {
			per = 1
		}
		p.s.drainNsPerItem.Store(per)
	}
	p.lastVisible = pub
	p.cycle = p.cycle[:0]
}

// checkStall fires the pipeline-stall warning when items are queued but no
// publish has made progress for stallAfter — the watermark equivalent of a
// wedged coordinator (an engine fold blocking, a refit monopolizing the
// loop).
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

// fullRefit rebuilds the index from the answer-extended dataset and reruns
// the configured engine's full inference from scratch.
//
//tdh:wallclock refit duration is an observability histogram; replayed state never reads it
func (p *pipeline) fullRefit() {
	start := time.Now()
	p.idx = data.NewIndex(p.work)
	p.st = p.s.cfg.Engine.Fit(p.idx)
	p.round++
	p.sinceRefit, p.held = 0, false
	p.metrics().observeStage(stageRefit, start)
	p.reportConvergence()
	// When this refit is what makes drained items visible (the refresh
	// path, or items a held cycle drained), their span trees show the refit
	// as the fold stage.
	p.stamps.foldStart, p.stamps.foldEnd, p.stamps.refit = start, time.Now(), true
	p.publish(nil)
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

// markDirty advances the refit-policy counters by n accepted units.
func (p *pipeline) markDirty(n int) {
	if n == 0 {
		return
	}
	if p.sinceRefit == 0 {
		p.staleSince = time.Now() //tdh:wallclock refit-scheduling heuristic; not part of logged or replayed state
	}
	p.sinceRefit += n
}

// apply folds one coordinator cycle — its answers plus its mutations — into
// the campaign state and publishes one snapshot covering all of it.
// Mutations first: they extend the index (data.Index.Extend) and re-seed the
// engine state (Engine.Grow) so the cycle's answers — and every /task after
// the publish — already see the new objects. Answers then fold through one
// epoch, which reports what it touched. An engine without an incremental
// path keeps publishing its previous state (stale confidences, fresh
// counters) and the cycle is held: the additions' effect on the result, and
// with it the watermark, waits for the next refit.
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
		p.idx, touched = p.idx.Extend(p.work, p.stageMutations(muts))
		if st, ok := eng.Grow(p.st, p.idx, touched); ok {
			p.st = st
		} else {
			p.held = true
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
	p.publish(touched)
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

// shouldRefit applies the count/staleness policy (see RefitPolicy): the
// staleness deadline always fires; the count trigger waits out a backlog
// when — and only when — that deadline exists to bound the wait.
func (p *pipeline) shouldRefit(now time.Time) bool {
	if p.sinceRefit <= 0 {
		return false
	}
	if p.policy.MaxStaleness > 0 {
		if now.Sub(p.staleSince) >= p.policy.MaxStaleness {
			return true
		}
		if p.backlog {
			return false
		}
	}
	return p.policy.MaxAnswers > 0 && p.sinceRefit >= p.policy.MaxAnswers
}

// drain moves what is buffered on the ingest queue into the cycle's answers
// and mutations, in enqueue order, without blocking. limit caps the items
// taken (0 = unbounded, used during refresh and shutdown); p.backlog records
// whether the queue still held items afterwards, so the coordinator
// re-kicks itself instead of stalling a backlog and defers a count-triggered
// refit behind it. taken counts the items drained; callers release the
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
				p.fullRefit()
			}
			p.releaseDepth(taken)
			if p.backlog {
				p.s.kick() // backlog beyond the batch cap: schedule another cycle
			}
		case req := <-p.s.refreshCh:
			// No incremental answer pass here: the refit recomputes
			// everything the drained answers would have contributed.
			// Mutations still extend the working dataset first so the refit
			// covers them.
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
				p.fullRefit()
			}
			p.checkStall(time.Now())
		case <-p.s.quitCh:
			// Flush: every item accepted before Close was enqueued (Close
			// waits out in-flight accepts first), so one unbounded drain
			// folds the backlog into a final snapshot. Items a held cycle
			// drained stay held: no refit absorbs them before shutdown.
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
