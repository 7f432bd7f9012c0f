package server

import (
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/infer"
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
// Advance'd around the epoch's touched objects — O(batch · (key + chunk +
// log |O|)), the persistent rankings of assign.Plan — instead of rebuilt
// from scratch (O(Σ|Vo| + |O| log |O|)); the plan holds only what the
// campaign's assigner reads (assign.PlanFor), and every publish completes it
// in the pipeline goroutine, so no /task request ever pays a plan build
// in-line. Full refits — the MAP-EM from scratch (core.Run: always a cold,
// deterministic function of the dataset, so a replayed log refits to the
// state the live process published), fanned out over the cores once the
// index is large enough to pay for it — are debounced behind a RefitPolicy
// and every one runs beside the coordinator, at most one at a time: the
// boot fit, POST /refresh and each policy refit alike. A fit (launchFit) is
// NewIndex + Engine.Fit over a prefix of the working dataset on its own
// goroutine; the coordinator keeps draining, folding and publishing
// against the installed fit meanwhile. When the fit lands, the coordinator
// installs it, folds the answers drained since the cut through one epoch
// and publishes (land): the state a refit at the cut followed by one fold
// gives. In Koch & Olteanu's terms a fold conditions the published state
// with the trust parameters held fixed and a refit re-estimates them, so
// neither waits for the other. Growth is what waits: it changes the object
// set a fit reads, so a cycle that drains growth while a fit is in flight
// first waits that fit out and lands it, then extends the index like any
// other cycle. The boot fit, a refresh and Close wait a fit out the same
// way, and every fit lands: none is ever discarded.
//
// A refit is worth its cost only when it changes what readers see, so every
// land after the boot fit measures how far it moved the published state —
// truths flipped, max |Δμ|, max |Δ trust|, by object and participant name
// over what both states hold (refitDelta) — and the count trigger backs
// off while refits flip nothing: the threshold starts at
// RefitPolicy.MaxAnswers, doubles after a land that flipped no truth over
// an outgoing state that was not held, and resets to MaxAnswers on any
// flip or held state. MaxStaleness stays the hard bound; with it disabled
// the count threshold keeps doubling for as long as refits flip nothing.
// Neither trigger asks which engine runs: a refit-only engine's outgoing
// state is held whenever answers came in, so it never backs off, and a
// numeric engine's truth is its formatted estimate, so any moved estimate
// is a flip and it keeps the floor.

// RefitPolicy controls when the pipeline escalates from incremental
// confidence updates to a full EM refit, and when ingestion sheds load.
// Zero-value fields take the defaults documented per field. Both refit
// triggers run from the installed fit: a refit starts once either fires and
// no other is in flight, and runs beside the coordinator until it lands.
type RefitPolicy struct {
	// MaxAnswers is the floor of the count trigger: a full refit starts
	// once the count threshold in force of answers and mutations were
	// drained since the last fit was installed (default 64; <0 disables
	// count-based refits). The threshold starts at MaxAnswers, doubles
	// after each land that flipped no truth over a state that held nothing
	// back, and resets to MaxAnswers on any flip or held state (land). With
	// MaxStaleness disabled it keeps doubling while refits flip nothing.
	MaxAnswers int
	// MaxStaleness triggers a full refit once the oldest answer or mutation
	// the installed fit has not seen is older than this (default 2s; <0
	// disables staleness refits), however far the count threshold has
	// doubled: the hard bound on how long a fit may stay stale.
	MaxStaleness time.Duration
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
	// batchSize caps how many queued items (answers and mutations) one
	// coordinator cycle drains before publishing a snapshot.
	batchSize = 64
	// queueSize is the ingest queue's buffer; /answer blocks (backpressure)
	// while it is full.
	queueSize = 1024
)

func (p RefitPolicy) withDefaults() RefitPolicy {
	if p.MaxAnswers == 0 {
		p.MaxAnswers = defaultMaxAnswers
	}
	if p.MaxStaleness == 0 {
		p.MaxStaleness = defaultMaxStaleness
	}
	return p
}

// refreshReq asks the pipeline for a full refit: the pipeline applies what
// is queued, lands any fit in flight, then runs one fit over everything and
// sends the snapshot that fit published on done.
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
	// threshold is the count trigger in force: MaxAnswers, doubled per land
	// that changed nothing (backOff).
	threshold int

	// Lineage accounting, all coordinator-owned. batchSeq is the last
	// ingest sequence the latest drain took; drainedSeq is the highest one
	// in the working dataset — apply advances it to batchSeq once the batch
	// is in p.work, so a fit landing between a drain and its apply publishes
	// no watermark over items it has not applied; fitSeq is the one the
	// installed fit covers. A publish copies drainedSeq onto the snapshot
	// as the visibility watermark — unless held: the engine refused to fold
	// or grow an item drained since the installed fit (no epoch, no
	// incremental growth), so neither the published state nor its index
	// reflects it, and the watermark stays at what the fit covers until a
	// fit that indexes it is installed. cycle holds the drained items until the publish whose
	// watermark covers them completes them (visibility histogram + span
	// trees); stamps carries the cycle's stage timestamps for those spans.
	// lastVisible is the last publish that completed drained items — the
	// progress signal the stall watchdog checks against queue depth.
	batchSeq    int64
	drainedSeq  int64
	fitSeq      int64
	held        bool
	cycle       []itemMeta
	stamps      cycleStamps
	lastVisible time.Time
}

// fitJob is the one refit in flight beside the coordinator: a cold
// NewIndex + Engine.Fit over a prefix of the working dataset, run on its own
// goroutine, which sends the result on done and exits. The prefix needs no
// copy: only answers are appended to the working dataset while a fit reads
// it (stageMutations). Everything but done is coordinator-owned.
type fitJob struct {
	done    chan fitResult // buffered for the one send, so the fit goroutine never blocks
	seq     int64          // drainedSeq at the cut: the items the fit covers
	answers int            // len(work.Answers) at the cut; the rest is the suffix land folds
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
// assignment plan already attached — built, reused or advanced in this
// goroutine so no /task request ever pays for it in-line:
//
//   - when refit is set — a fit was just installed, the boot fit included —
//     the plan is built from scratch, with the parts the campaign's
//     assigner reads (assign.PlanFor);
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
	// The visibility watermark: everything in the working dataset is in
	// the state this snapshot publishes (apply folds a batch before it
	// moves drainedSeq past it) — unless the engine refused some of it
	// since the installed fit, which then still covers what it was cut at.
	wm := p.drainedSeq
	if p.held {
		wm = max(p.fitSeq, prev.Watermark)
	}
	res := p.st.Res()
	// PublishedAt is observability metadata (snapshot age in /stats);
	// replay rebuilds state from the log, never timestamps.
	//tdh:wallclock snapshot age metadata; never fed back into replayed state
	publishedAt := time.Now()
	planStart := time.Now()
	p.stamps.planStart = planStart
	var plan *assign.Plan
	switch {
	case refit:
		plan = assign.PlanFor(p.s.cfg.Assigner, p.idx, res)
		p.metrics().planBuilds.Inc()
	case p.idx == prev.Idx && res == prev.Res:
		plan = prev.Plan() // nothing moved: the previous plan is exact
	default:
		var adv bool
		plan, adv = prev.Plan().Advance(p.idx, res, touched)
		if adv {
			p.metrics().planAdvances.Inc()
		} else {
			p.metrics().planBuilds.Inc()
		}
	}
	p.metrics().ueaiMax.Set(plan.UEAIMax())
	p.metrics().settledObjects.Set(float64(plan.Settled()))
	p.metrics().observeStage(stagePlan, planStart)
	p.stamps.planEnd = time.Now()
	sn := &Snapshot{
		Idx: p.idx, St: p.st, Res: res, Round: p.round,
		Answers: p.applied, Mutations: p.mutApplied, PublishedAt: publishedAt,
		Watermark: wm, plan: plan,
	}
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
	// maintenance after a fold or a growth costs what the batch touched and
	// added, so one this slow is a from-scratch plan build (a refit, a
	// fallback) on a campaign large enough for that to fall behind ingest.
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
// wedged coordinator (an engine fold blocking, a cycle waiting out a long
// fit).
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

// launchFit starts a refit beside the coordinator over the working
// dataset as it stands. The prefix is p.work with Answers clipped: the
// coordinator only appends answers past it while the fit runs, and stages
// no growth (stageMutations).
//
//tdh:wallclock refit duration is an observability histogram; replayed state never reads it
func (p *pipeline) launchFit() {
	prefix := *p.work
	prefix.Answers = slices.Clip(p.work.Answers)
	job := &fitJob{
		done: make(chan fitResult, 1), seq: p.drainedSeq,
		answers: len(prefix.Answers), start: time.Now(),
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

// landFit waits out the fit in flight, if any, and lands it.
func (p *pipeline) landFit() {
	if p.fit != nil {
		p.land(<-p.fit.done)
	}
}

// refit runs one fit over the whole working dataset and lands it, the
// coordinator waiting: the boot fit and POST /refresh.
func (p *pipeline) refit() {
	p.landFit()
	p.launchFit()
	p.landFit()
}

// land installs a fit that ran beside the coordinator and publishes it with
// a fresh plan: the fitted state, with the answers drained since the cut
// folded through one epoch — for a refit-only engine, which cannot fold
// them, the fit alone, with the watermark at the cut.
//
//tdh:wallclock fold-stage timing is observability only; replayed state never reads it
func (p *pipeline) land(res fitResult) {
	job := p.fit
	p.fit = nil
	out, outHeld := p.st, p.held
	p.idx, p.st = res.idx, res.st
	p.round++
	p.fitSeq, p.held = job.seq, false
	p.sinceRefit, p.staleSince = 0, job.staleSince
	p.reportConvergence()
	p.fold(p.work.Answers[job.answers:])
	if out != nil { // the boot fit has nothing to compare with
		p.backOff(compare(out.Res(), p.st.Res()), outHeld)
	}
	p.stamps.foldStart, p.stamps.foldEnd, p.stamps.refit = job.start, time.Now(), true
	p.publish(nil, true)
}

// backOff exports how far a land moved the published state and sets the
// count threshold for the next fit: doubled when the land flipped no truth
// and the outgoing state held nothing back, MaxAnswers otherwise.
func (p *pipeline) backOff(d refitDelta, held bool) {
	m := p.metrics()
	m.refitFlips.Observe(float64(d.flips))
	m.refitDrift[driftMu].Observe(d.mu)
	m.refitDrift[driftSourceTrust].Observe(d.sourceTrust)
	m.refitDrift[driftWorkerTrust].Observe(d.workerTrust)
	if d.flips > 0 || held {
		p.threshold = p.policy.MaxAnswers
	} else if p.threshold > 0 && p.threshold <= math.MaxInt/2 {
		p.threshold *= 2
	}
	m.refitThreshold.Set(float64(p.threshold))
}

// refitDelta is how far a land moved the published state: truths flipped
// and the largest confidence and trust changes, over the objects and
// participants the outgoing and incoming states both hold.
type refitDelta struct {
	flips                    int
	mu                       float64
	sourceTrust, workerTrust float64
}

// compare measures the delta from the outgoing result out to the incoming
// one in, pairing objects by name across their indexes and confidences by
// candidate value. It reads only the infer.Result API, so it serves every
// engine alike.
func compare(out, in *infer.Result) refitDelta {
	var d refitDelta
	oi, ii := out.Rows.Index(), in.Rows.Index()
	for j, name := range ii.Objects {
		// Extend appends objects after the established IDs, so an object
		// usually sits at the same ID in both indexes.
		i := j
		if i >= len(oi.Objects) || oi.Objects[i] != name {
			var ok bool
			if i, ok = oi.ObjectID(name); !ok {
				continue
			}
		}
		if out.TruthAt(i) != in.TruthAt(j) {
			d.flips++
		}
		d.mu = max(d.mu, rowDrift(oi.ViewAt(i).CI.Values, out.ConfidenceAt(i), ii.ViewAt(j).CI.Values, in.ConfidenceAt(j)))
	}
	d.sourceTrust = trustDrift(out.SourceTrust, in.SourceTrust)
	d.workerTrust = trustDrift(out.WorkerTrust, in.WorkerTrust)
	return d
}

// rowDrift is the largest |Δ| between two confidence rows of one object,
// pairing entries by candidate value; a value missing from either row, or
// past the end of a short one, is not compared.
func rowDrift(outVals []string, out []float64, inVals []string, in []float64) float64 {
	d := 0.0
	if slices.Equal(outVals, inVals) {
		for k := range min(len(out), len(in)) {
			d = max(d, math.Abs(out[k]-in[k]))
		}
		return d
	}
	for k, v := range inVals {
		if i := slices.Index(outVals, v); i >= 0 && i < len(out) && k < len(in) {
			d = max(d, math.Abs(out[i]-in[k]))
		}
	}
	return d
}

// trustDrift is the largest |Δ| between two trust maps over the names both
// hold.
func trustDrift(out, in map[string]float64) float64 {
	d := 0.0
	//tdh:orderok a max is the same in every iteration order
	for name, v := range in {
		if w, ok := out[name]; ok {
			d = max(d, math.Abs(v-w))
		}
	}
	return d
}

// fold folds answers into p.st through one epoch and returns the objects
// it touched. An engine with no incremental path opens no epoch: p.st stays
// as it is and the cycle is held.
func (p *pipeline) fold(answers []data.Answer) []int {
	if len(answers) == 0 {
		return nil
	}
	ep, ok := p.s.cfg.Engine.NewEpoch(p.st, p.idx)
	if !ok {
		p.held = true
		return nil
	}
	ep.Fold(answers)
	p.st = ep.Seal()
	return ep.Touched()
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
	var touched []int
	if len(muts) > 0 {
		idx, grown := p.idx.Extend(p.work, p.stageMutations(muts))
		if st, ok := p.s.cfg.Engine.Grow(p.st, idx, grown); ok {
			p.idx, p.st, touched = idx, st, grown
		} else {
			p.held = true // staged in p.work: the next refit's NewIndex covers them
		}
	}
	if len(answers) > 0 {
		p.work.Answers = append(p.work.Answers, answers...)
		p.markDirty(len(answers))
		p.applied += len(answers)
		touched = append(touched, p.fold(answers)...)
		p.metrics().batchSize.Observe(float64(len(answers)))
	}
	p.drainedSeq = p.batchSeq
	p.metrics().observeStage(stageFold, foldStart)
	p.stamps.foldEnd = time.Now()
	p.publish(touched, false)
}

// stageMutations appends accepted mutations to the working dataset and the
// counters, returning them in data.Mutation form for apply to Extend the
// live index with. It must not run while a fit is in flight: launchFit's
// prefix shares Records and Candidates with p.work, so growth waits the fit
// out (runCycle).
func (p *pipeline) stageMutations(muts []*mutation) data.Mutation {
	if p.fit != nil {
		panic("server: growth staged while a fit reads the working dataset")
	}
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
// fit is in flight and the installed one has not seen every drained unit:
// the count trigger against the threshold in force (backOff), the
// staleness trigger against MaxStaleness.
func (p *pipeline) shouldRefit(now time.Time) bool {
	if p.fit != nil || p.staleSince.IsZero() {
		return false
	}
	if p.policy.MaxStaleness > 0 && now.Sub(p.staleSince) >= p.policy.MaxStaleness {
		return true
	}
	return p.threshold > 0 && p.sinceRefit >= p.threshold
}

// drain moves what is buffered on the ingest queue into the cycle's answers
// and mutations, in enqueue order, without blocking. limit caps the items
// taken (0 = unbounded, used during refresh and shutdown); p.backlog records
// whether the queue still held items afterwards, so the coordinator
// re-kicks itself instead of stalling a backlog. drain records the batch's
// last seq in p.batchSeq and leaves drainedSeq to apply. taken counts the
// items drained; callers release the depth counter by it only AFTER the
// drained batch is folded and published (releaseDepth), so queue depth —
// what /stats, /metrics and admission control read — covers the whole
// accepted-but-unfolded backlog, not just the channel buffer.
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
			p.batchSeq = it.seq
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

// runCycle drains up to limit items (0 = all), applies them and publishes.
// Growth changes the object set a fit reads, so a cycle that drained growth
// while a fit is in flight first waits that fit out and lands it.
func (p *pipeline) runCycle(limit int) {
	answers, muts, taken := p.drain(limit)
	if len(muts) > 0 {
		p.landFit()
	}
	p.apply(answers, muts)
	p.releaseDepth(taken)
}

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
			p.runCycle(batchSize)
			if p.shouldRefit(time.Now()) {
				p.launchFit()
			}
			if p.backlog {
				p.s.kick() // backlog beyond the batch cap: schedule another cycle
			}
		case res := <-p.fitDone():
			p.land(res)
		case req := <-p.s.refreshCh:
			p.runCycle(0)
			p.refit()
			req.done <- p.s.snap()
		case <-tick.C:
			if p.shouldRefit(time.Now()) {
				p.launchFit()
			}
			p.checkStall(time.Now())
		case <-p.s.quitCh:
			// Flush: every item accepted before Close was enqueued (Close
			// waits out in-flight accepts first), so one unbounded drain
			// folds the backlog into a final snapshot, and the fit in
			// flight, if any, lands: no fit goroutine outlives Close.
			p.runCycle(0)
			p.landFit()
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
