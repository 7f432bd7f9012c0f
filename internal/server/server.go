// Package server implements the crowdsourcing service the paper's
// Section 5.5 experiments ran on ("our own crowdsourcing system"): an HTTP
// API that serves truth-discovery tasks to workers, collects their answers,
// and keeps inference and task assignment fresh as the campaign progresses.
//
// Endpoints (all JSON):
//
//	GET  /task?worker=ID      fetch up to K assigned questions for a worker
//	POST /answer              submit {"worker","object","value"}
//	POST /objects             add an object with seeded candidates (open world)
//	POST /records             add a source record (open world)
//	GET  /truths              current inferred truths
//	GET  /confidence?object=O confidence distribution of one object
//	GET  /trust               per-source and per-worker trust estimates
//	GET  /stats               campaign statistics (+quality if gold known)
//	POST /refresh             force a full re-inference and wait for it
//	GET  /metrics             the campaign's registry, Prometheus text format
//	GET  /trace               recent sampled requests as span trees
//
// The package is embedded, not run: internal/campaign boots one Server per
// hosted campaign (Campaign.boot is the only non-test caller of New) and
// serves the routes above under /v1/campaigns/{id}/.
//
// Architecture: read endpoints serve from an immutable Snapshot published
// through an atomic pointer and take no lock shared with inference. POST
// /answer validates against the current snapshot and the worker's sharded
// pending state, appends to the durable event log, and enqueues the answer
// on the one FIFO ingest queue of the background inference pipeline (see
// pipeline.go), which folds batches in through the engine's epochs and
// debounces full refits per RefitPolicy.
// The campaign is open-world: POST /objects and /records append typed
// mutation events the same way and the pipeline folds them into the next
// published snapshot by extending the index (data.Index.Extend) and growing
// the model (core.Model.Grow) in place of a full rebuild. An optional
// append-only event log makes campaigns — answers and dataset growth alike
// — durable across restarts (see internal/eventlog; logs written by its
// answers-only ancestor replay unchanged).
//
// Every count /stats reports is stored once: applied answers and mutations,
// rounds and watermarks come from the served Snapshot; accepted answers,
// added objects/records and plan build/advance/fallback counts are read back
// from the obs registry GET /metrics exports (metrics.go).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/assign"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// EventSink receives accepted answers and dataset mutations for durable
// storage before they are acknowledged (implemented by eventlog.Log).
type EventSink interface {
	Append(a data.Answer) error
	AppendAddObject(object string, candidates []string) error
	AppendAddRecord(r data.Record) error
}

// Config wires a Server.
type Config struct {
	// Dataset is the campaign's data at boot. The server never writes it:
	// it grows a working copy that shares the dataset's backing arrays until
	// its first append to each. So the caller must not modify the dataset
	// (its slices, its maps or the candidate slices in them) after New.
	Dataset *data.Dataset
	// Engine is the truth-model engine the campaign runs (fit, incremental
	// fold, growth, answer validation, wire encoding).
	Engine   engine.Engine
	Assigner assign.Assigner
	// K is the number of questions handed out per /task call (default 5,
	// the paper's setting).
	K int
	// Log, when non-nil, receives every accepted answer and dataset mutation
	// (POST /objects, POST /records) before it is acknowledged. Without it
	// the campaign still collects and grows, just not durably.
	Log EventSink
	// Seed drives the assigner's sampling.
	Seed int64
	// Policy tunes the inference pipeline (zero value = defaults).
	Policy RefitPolicy
	// OpenAnswers accepts answers for objects that were never assigned to
	// the submitting worker (an open campaign). Duplicate (worker, object)
	// answers are rejected either way. Default: answers must match a
	// pending assignment handed out by /task.
	OpenAnswers bool
	// Metrics, when non-nil, is the registry the server registers its
	// instruments on (so an embedder — the campaign manager, the event log
	// — shares one registry per campaign). Nil gets a private registry.
	// Either way GET /metrics serves it in the Prometheus text format.
	Metrics *obs.Registry
	// Logger receives the server's structured diagnostics (admission
	// rejections, pipeline stalls, slow publishes) — typically the campaign
	// manager's logger with a campaign attribute attached. Nil discards.
	Logger *slog.Logger
	// TraceSampleEvery sets the full-span capture rate: one in this many
	// accepted requests records a span tree into the trace ring (0 = the
	// default 1/64; 1 = every request; <0 = never). Requests arriving with
	// a sampled W3C traceparent are always captured. Watermarks and the
	// visibility histogram are always on regardless.
	TraceSampleEvery int
}

// Server is the crowdsourcing coordinator. Reads are lock-free against a
// published Snapshot; per-worker assignment state is sharded (pending.go);
// ingestion goes through one queue, folded by the background coordinator
// goroutine (pipeline.go).
type Server struct {
	cfg     Config
	current atomic.Pointer[Snapshot]
	workers *workerState

	// Accepted open-world mutations: reservation state that gives concurrent
	// duplicate submissions a deterministic 409 while the winner is still in
	// flight toward its snapshot. Entries are kept for the server's lifetime
	// — they are exactly the additions this instance accepted, the in-memory
	// complement of the snapshot state.
	// addedObjects is a refcount, not a set: every accepted creator of an
	// object (its POST /objects, each POST /records claiming it) holds one
	// reference, so a failed log append releases only its own reference and
	// never un-reserves a name other accepted requests still depend on.
	mutMu        sync.Mutex
	addedObjects map[string]int     // object name -> accepted creator count
	addedClaims  map[[2]string]bool // (object, source) added via POST /records

	// Ingest: each accepted item goes onto ingestCh, one FIFO queue, and
	// kickCh nudges the coordinator, which drains it into one publish.
	// queueDepth counts accepted-but-unfolded items by enqueue/release
	// accounting — unlike a len(chan) read racing the coordinator's drain,
	// it gives /stats and /metrics a stable queue depth, and it is what
	// admission control (RefitPolicy.RejectQueueDepth) reads.
	// Lineage: every enqueued item gets a monotonic sequence number,
	// assigned under seqMu held across the (possibly blocking) channel send
	// so sequence order is exactly FIFO order. The folded watermark is the
	// published Snapshot.Watermark.
	ingestCh   chan ingestItem
	queueDepth atomic.Int64
	seqMu      sync.Mutex
	seq        int64 // guarded by seqMu
	kickCh     chan struct{}
	refreshCh  chan refreshReq
	quitCh     chan struct{}
	doneCh     chan struct{}
	closed     atomic.Bool
	closeMu    sync.Mutex
	ingestWG   sync.WaitGroup
	closeOnce  sync.Once

	// planFallbacks counts /task requests that found a stale attached plan,
	// or one built for another assigner (a threading regression). The assigner increments it through
	// assign.Context; the registry exports it at scrape time.
	planFallbacks atomic.Int64

	// metrics holds the pre-resolved /metrics instruments (metrics.go). The
	// accepted-answer, accepted-mutation and plan build/advance counters live
	// only there: /stats and /metrics read the same storage.
	metrics *serverMetrics

	// Observability plumbing: the span recorder behind /trace, the
	// structured logger (never nil; discards by default), the process start
	// for /stats uptime, the EWMA nanoseconds-per-item drain-rate estimate
	// Retry-After derives from, and the per-site rate limiters for the
	// recurring diagnostic warnings.
	tracer         *trace.Tracer
	log            *slog.Logger
	startTime      time.Time
	drainNsPerItem atomic.Int64
	lastRejectLog  atomic.Int64
	lastStallLog   atomic.Int64
	lastSlowLog    atomic.Int64
	lastCapLog     atomic.Int64
}

// enqueue puts one accepted item on the ingest queue (blocking there is the
// ingest backpressure) and nudges the coordinator. The order — enqueue,
// then kick — makes the wakeup race-free: a dropped kick means a token is
// already pending, so the coordinator will drain again after this item is
// visible. The depth counter is incremented before the (possibly blocking)
// send so admission control sees demand, not just buffered items.
//
// Each item is stamped with the next ingest sequence number under seqMu,
// held across the channel send: sequence order is therefore exactly FIFO
// order, which is what makes the published watermark (Snapshot.Watermark,
// max folded seq) a complete visibility statement — every item at or below
// it has been folded. A full queue blocks the send inside the lock, so
// enqueuers queue on the mutex instead of the channel; the backpressure is
// identical. Returns the assigned sequence, which /answer echoes (with
// shard 0, the wire's name for the one queue) so clients can poll
// visibility.
func (s *Server) enqueue(it ingestItem) int64 {
	s.queueDepth.Add(1)
	s.seqMu.Lock()
	s.seq++
	it.seq = s.seq
	s.ingestCh <- it
	s.seqMu.Unlock()
	s.kick()
	return it.seq
}

// boundaryCtx returns the request's trace context, attached by the metrics
// middleware at the HTTP boundary; handlers invoked without the middleware
// (direct tests) get a fresh root.
func (s *Server) boundaryCtx(r *http.Request) trace.Ctx {
	if tc, ok := trace.FromContext(r.Context()); ok {
		return tc
	}
	return s.tracer.Extract("", time.Now()) //tdh:wallclock trace timestamps are diagnostics; never fed into replayed state
}

// logEvery rate-limits a recurring log site to one line per period; last is
// the site's own timestamp slot.
//
//tdh:wallclock log rate limiting is diagnostics only
func (s *Server) logEvery(last *atomic.Int64, period time.Duration) bool {
	now := time.Now().UnixNano()
	prev := last.Load()
	return now-prev >= period.Nanoseconds() && last.CompareAndSwap(prev, now)
}

// retryAfter turns a rejected request's queue depth into a Retry-After hint
// using the pipeline's observed drain rate (EWMA ns per item), bounded to
// [1, 30] seconds. Before the first measured cycle it answers the floor.
func (s *Server) retryAfter(depth int64) int64 {
	per := s.drainNsPerItem.Load()
	if per <= 0 {
		return 1
	}
	secs := (depth*per + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

// kick nudges the coordinator without blocking; kickCh has capacity 1, so
// concurrent kicks coalesce into one drain cycle.
func (s *Server) kick() {
	select {
	case s.kickCh <- struct{}{}:
	default:
	}
}

// beginIngest registers an in-flight answer accept; Close waits for all of
// them before the pipeline's final drain, so an answer acknowledged with
// 200 is always folded into the final snapshot. Returns false once the
// server is shutting down.
func (s *Server) beginIngest() bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.ingestWG.Add(1)
	return true
}

// New builds a Server, runs the initial inference synchronously, and starts
// the inference pipeline.
func New(cfg Config) (*Server, error) {
	p, err := newPipeline(cfg)
	if err != nil {
		return nil, err
	}
	go p.loop()
	return p.s, nil
}

// newPipeline is New without the coordinator goroutine: the server is fully
// built and its initial inference published, and p.loop has yet to start.
//
//tdh:pipeline boot-time construction: the pipeline goroutine has not started, so newPipeline owns all state
func newPipeline(cfg Config) (*pipeline, error) {
	if cfg.Dataset == nil {
		return nil, errors.New("server: nil dataset")
	}
	if cfg.Engine == nil {
		return nil, errors.New("server: nil engine")
	}
	if cfg.Assigner == nil {
		return nil, errors.New("server: nil assigner")
	}
	if tm := cfg.Engine.Model(); tm != engine.Categorical && cfg.Assigner.Name() == "EAI" {
		return nil, fmt.Errorf("server: assigner EAI requires a categorical engine, not %s", tm)
	}
	if cfg.K == 0 {
		cfg.K = 5
	}
	cfg.Policy = cfg.Policy.withDefaults()
	s := &Server{
		cfg:          cfg,
		workers:      newWorkerState(),
		addedObjects: map[string]int{},
		addedClaims:  map[[2]string]bool{},
		ingestCh:     make(chan ingestItem, queueSize),
		kickCh:       make(chan struct{}, 1),
		refreshCh:    make(chan refreshReq),
		quitCh:       make(chan struct{}),
		doneCh:       make(chan struct{}),
	}
	s.startTime = time.Now() //tdh:wallclock uptime baseline for /stats; never fed into replayed state
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.tracer = trace.New(trace.DefaultCapacity, cfg.TraceSampleEvery)
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.metrics = newServerMetrics(s, reg)
	// Seed the answered-sets from answers already in the dataset (e.g.
	// recovered from an answer log), so replayed answers cannot be
	// resubmitted and double-counted.
	for _, a := range cfg.Dataset.Answers {
		sh := s.workers.shardFor(a.Worker)
		sh.markAnswered(a.Worker, a.Object)
	}
	p := &pipeline{s: s, policy: cfg.Policy, work: workingCopy(cfg.Dataset), threshold: cfg.Policy.MaxAnswers}
	s.metrics.refitThreshold.Set(float64(p.threshold))
	p.refit() // initial inference, published before New returns
	return p, nil
}

// workingCopy is the pipeline's working dataset over ds, without copying
// a record or an answer: a struct copy whose Records and Answers are
// clipped, so the pipeline's first append to either reallocates, and whose
// Candidates map is a copy with every value slice clipped, so neither a new
// object nor a seed appended to an existing one reaches ds. The Truth and
// Domains maps are shared; the pipeline only reads them.
func workingCopy(ds *data.Dataset) *data.Dataset {
	w := *ds
	w.Records, w.Answers = slices.Clip(ds.Records), slices.Clip(ds.Answers)
	if ds.Candidates != nil {
		w.Candidates = make(map[string][]string, len(ds.Candidates))
		for o, vals := range ds.Candidates {
			w.Candidates[o] = slices.Clip(vals)
		}
	}
	return &w
}

// Close drains the ingest queue into a final snapshot and stops the
// inference pipeline. Answer submissions after Close fail with 503; reads
// keep serving the final snapshot.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeMu.Lock()
		s.closed.Store(true)
		s.closeMu.Unlock()
		// Wait for in-flight accepts to finish enqueueing (the pipeline is
		// still draining, so a full queue cannot deadlock this), then stop
		// the pipeline; its final drain folds every acknowledged answer in.
		s.ingestWG.Wait()
		close(s.quitCh)
		<-s.doneCh
	})
	return nil
}

// Refresh forces a full refit and returns the snapshot it published
// (programmatic twin of POST /refresh).
func (s *Server) Refresh() (*Snapshot, error) {
	req := refreshReq{done: make(chan *Snapshot, 1)}
	select {
	case s.refreshCh <- req:
		return <-req.done, nil
	case <-s.quitCh:
		return nil, errors.New("server: closed")
	}
}

// A Route is one endpoint of the data plane, served by Handler at Path and
// proxied under /v1/campaigns/{id}. The diagnostics (/metrics, /trace) are
// not instrumented, so reading them perturbs no latency histogram.
type Route struct {
	Method, Path string
	Instrumented bool // behind the metrics middleware, labelled route=Path
	Writes       bool // advances campaign state: served only while live
	serve        func(*Server, http.ResponseWriter, *http.Request)
}

// routes is the data plane, stated once: Handler's mux, the HTTP metrics'
// route labels and the campaign proxy's checks (RouteFor) derive from it.
var routes = []Route{
	{http.MethodGet, "/task", true, true, (*Server).handleTask},
	{http.MethodPost, "/answer", true, true, (*Server).handleAnswer},
	{http.MethodPost, "/objects", true, true, (*Server).handleAddObject},
	{http.MethodPost, "/records", true, true, (*Server).handleAddRecord},
	{http.MethodGet, "/truths", true, false, (*Server).handleTruths},
	{http.MethodGet, "/confidence", true, false, (*Server).handleConfidence},
	{http.MethodGet, "/trust", true, false, (*Server).handleTrust},
	{http.MethodGet, "/stats", true, false, (*Server).handleStats},
	{http.MethodPost, "/refresh", true, true, (*Server).handleRefresh},
	{http.MethodGet, "/metrics", false, false, (*Server).handleMetrics},
	{http.MethodGet, "/trace", false, false, (*Server).handleTrace},
}

// RouteFor returns the data-plane route at path ("/task"), if there is one.
func RouteFor(path string) (Route, bool) {
	for _, rt := range routes {
		if rt.Path == path {
			return rt, true
		}
	}
	return Route{}, false
}

// Handler returns the HTTP handler for the service: one method-scoped
// pattern per route.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { rt.serve(s, w, r) })
		if rt.Instrumented {
			h = s.metrics.instrument(rt.Path, h)
		}
		mux.Handle(rt.Method+" "+rt.Path, h)
	}
	return mux
}

// Task is one question handed to a worker: the object and its candidate
// values (the worker selects one, per the paper's problem setting).
type Task struct {
	Object     string   `json:"object"`
	Candidates []string `json:"candidates"`
}

func (s *Server) handleTask(w http.ResponseWriter, r *http.Request) {
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		httpError(w, http.StatusBadRequest, "missing worker parameter")
		return
	}
	snap := s.snap()
	sh := s.workers.shardFor(worker)

	// Prune pending entries the current snapshot no longer knows (e.g. a
	// stale assignment from a superseded dataset): a worker must never be
	// wedged behind objects that can no longer be served as tasks.
	sh.mu.Lock()
	live := prunePending(sh, worker, snap)
	sh.mu.Unlock()
	if len(live) == 0 {
		// Compute the assignment outside the shard lock — it only reads the
		// immutable snapshot, and an O(|O|) assigner pass must not block
		// /answer calls for other workers hashing to the same shard.
		ctx := &assign.Context{
			Idx:           snap.Idx,
			Res:           snap.Res,
			Plan:          snap.Plan(),
			PlanFallbacks: &s.planFallbacks,
			Workers:       []string{worker},
			K:             s.cfg.K,
			Seed:          taskSeed(s.cfg.Seed, snap.Round, worker),
		}
		var assigned []string
		if eai, ok := s.cfg.Assigner.(assign.EAI); ok {
			out, st := eai.AssignWithStats(ctx)
			assigned = out[worker]
			s.metrics.eaiEvaluated.Observe(float64(st.Evaluated))
		} else {
			assigned = s.cfg.Assigner.Assign(ctx)[worker]
		}
		sh.mu.Lock()
		// A concurrent /task for the same worker may have installed an
		// assignment meanwhile; keep that one for idempotency.
		if live = prunePending(sh, worker, snap); len(live) == 0 {
			for _, o := range assigned {
				// The snapshot's index may lag recent answers; the
				// answered-set is authoritative, so filter re-assignments
				// of answered objects.
				if !sh.hasAnswered(worker, o) {
					live = append(live, o)
				}
			}
			if len(live) > 0 {
				// Store a copy: markAnswered mutates the stored slice's
				// backing array, and live is read after unlock.
				sh.pending[worker] = append([]string(nil), live...)
			}
		}
		sh.mu.Unlock()
	}
	tasks := make([]Task, 0, len(live))
	for _, o := range live {
		ov := snap.Idx.View(o)
		if ov == nil {
			continue
		}
		tasks = append(tasks, Task{Object: o, Candidates: append([]string(nil), ov.CI.Values...)})
	}
	writeJSON(w, map[string]any{"worker": worker, "tasks": tasks})
}

// taskSeed derives the sampling seed for one /task assignment. The
// configured seed plus the snapshot round keep a worker's retries within a
// round deterministic (a reconnecting worker re-derives the same
// assignment), while the worker-name hash decorrelates sampling across
// workers: with a round-only seed, QASCA's per-call rand.New drew identical
// sample sequences for every cold worker in the same round, handing them
// all the same "randomly" scored tasks.
func taskSeed(seed, round int64, worker string) int64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, worker)
	return (seed + round) ^ int64(h.Sum64())
}

// prunePending drops pending entries the snapshot cannot serve and stores
// the survivors back; callers hold the shard lock. The returned slice is a
// copy: the stored one's backing array is mutated in place by markAnswered,
// so it must not be read after the lock is released.
func prunePending(sh *workerShard, worker string, snap *Snapshot) []string {
	objs := sh.pending[worker]
	live := make([]string, 0, len(objs))
	for _, o := range objs {
		if snap.Idx.View(o) != nil {
			live = append(live, o)
		}
	}
	if len(live) == 0 {
		delete(sh.pending, worker)
		return nil
	}
	sh.pending[worker] = live
	return append([]string(nil), live...)
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	var a data.Answer
	if !decodeRequest(w, r, &a) {
		return
	}
	if a.Worker == "" || a.Object == "" || (a.Value == "" && len(a.Values) == 0 && a.Num == nil) {
		httpError(w, http.StatusBadRequest, "worker, object and value are required")
		return
	}
	if !s.beginIngest() {
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer s.ingestWG.Done()
	tc := s.boundaryCtx(r)
	snap := s.snap()
	ov := snap.Idx.View(a.Object)
	if ov == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown object %q", a.Object))
		return
	}
	// Admission control: with RejectQueueDepth set, a saturated ingest queue
	// sheds load with a fast 429 instead of blocking the connection on the
	// enqueue below. Checked before any reservation or log I/O so a
	// rejected request does no work and rolls back nothing. Retry-After is
	// derived from the pipeline's observed drain rate, not a constant.
	if bound := s.cfg.Policy.RejectQueueDepth; bound > 0 {
		if depth := s.queueDepth.Load(); depth >= int64(bound) {
			s.metrics.ingestRejected.Inc()
			retry := s.retryAfter(depth)
			w.Header().Set("Retry-After", strconv.FormatInt(retry, 10))
			if s.logEvery(&s.lastRejectLog, logRepeatEvery) {
				s.log.Warn("admission control rejected answer",
					"trace_id", tc.TraceID.String(),
					"depth", depth, "retry_after_s", retry, "object", a.Object)
			}
			httpError(w, http.StatusTooManyRequests, "ingest queue is saturated; retry later")
			return
		}
	}
	// The engine owns payload validation: candidate membership for
	// categorical and multi-truth answers, numeric parsing for numeric ones
	// — plus in-place canonicalization of the typed payload.
	if err := s.cfg.Engine.ValidateAnswer(ov, &a); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}

	// Reserve the (worker, object) slot under the shard lock — concurrent
	// duplicates race on this reservation, not on the log I/O below.
	sh := s.workers.shardFor(a.Worker)
	sh.mu.Lock()
	if sh.hasAnswered(a.Worker, a.Object) {
		sh.mu.Unlock()
		httpError(w, http.StatusConflict,
			fmt.Sprintf("worker %q already answered object %q", a.Worker, a.Object))
		return
	}
	wasPending := sh.isPending(a.Worker, a.Object)
	if !s.cfg.OpenAnswers && !wasPending {
		sh.mu.Unlock()
		httpError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("object %q is not assigned to worker %q", a.Object, a.Worker))
		return
	}
	sh.markAnswered(a.Worker, a.Object)
	sh.mu.Unlock()

	// Durable append outside the shard lock: an fsync must not block /task
	// and /answer for every worker hashing to the same shard. On failure the
	// reservation is rolled back.
	if s.cfg.Log != nil {
		if err := s.cfg.Log.Append(a); err != nil {
			sh.mu.Lock()
			sh.unmarkAnswered(a.Worker, a.Object, wasPending)
			sh.mu.Unlock()
			s.log.Error("answer log append failed",
				"trace_id", tc.TraceID.String(), "worker", a.Worker,
				"object", a.Object, "err", err)
			httpError(w, http.StatusInternalServerError, "answer log: "+err.Error())
			return
		}
	}

	n := s.metrics.answersAccepted.Add(1)

	// Enqueue for the inference pipeline; a full queue applies
	// backpressure. The pipeline keeps draining until Close has waited out
	// every in-flight accept (beginIngest/ingestWG), so this send cannot
	// block forever. The item carries its lineage: the accept timestamp the
	// visibility histogram measures from and, for sampled requests, the
	// span recorder (annotated before the send — ownership transfers to the
	// coordinator with the channel handoff). The response echoes the trace
	// id plus the item's (shard, seq) so a client can poll /stats until
	// watermark[shard] >= seq to observe its answer become visible.
	act := s.tracer.Start(tc, "answer")
	act.Annotate(trace.Attr{Key: "object", Value: a.Object}, trace.Attr{Key: "worker", Value: a.Worker})
	seq := s.enqueue(ingestItem{answer: a, at: tc.Start, tr: act})
	writeJSON(w, map[string]any{
		"accepted": true, "answers": n,
		"trace_id": tc.TraceID.String(), "shard": 0, "seq": seq,
	})
}

// AddObjectRequest is the POST /objects body: a new object with its seeded
// candidate value set, so workers can be asked about it before any source
// has claimed it.
type AddObjectRequest struct {
	Object     string   `json:"object"`
	Candidates []string `json:"candidates"`
}

// handleAddObject ingests a new object into the live campaign. The object
// and its candidates are validated against the current snapshot, made
// durable, and folded into the next published snapshot, from which /task
// starts assigning the object (the EAI cold-object path ranks it high: no
// answers means maximal expected information).
func (s *Server) handleAddObject(w http.ResponseWriter, r *http.Request) {
	var req AddObjectRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.Object == "" || len(req.Candidates) == 0 {
		httpError(w, http.StatusBadRequest, "object and at least one candidate are required")
		return
	}
	cands := dedupStrings(req.Candidates)
	for _, c := range cands {
		if c == "" {
			httpError(w, http.StatusBadRequest, "empty candidate value")
			return
		}
		if err := s.checkHierarchyValue(c); err != nil {
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
	}
	if !s.beginIngest() {
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer s.ingestWG.Done()
	snap := s.snap()

	// Reserve the object name — concurrent duplicates race on this
	// reservation, not on the log I/O below. The snapshot covers everything
	// durable from before this instance; the reservation set covers what
	// this instance accepted but has not yet published.
	s.mutMu.Lock()
	if snap.Idx.View(req.Object) != nil || s.addedObjects[req.Object] > 0 {
		s.mutMu.Unlock()
		httpError(w, http.StatusConflict, fmt.Sprintf("object %q already exists", req.Object))
		return
	}
	s.addedObjects[req.Object]++
	s.mutMu.Unlock()

	tc := s.boundaryCtx(r)
	if s.cfg.Log != nil {
		if err := s.cfg.Log.AppendAddObject(req.Object, cands); err != nil {
			s.releaseObjectRef(req.Object)
			s.log.Error("event log append failed",
				"trace_id", tc.TraceID.String(), "kind", "add_object",
				"object", req.Object, "err", err)
			httpError(w, http.StatusInternalServerError, "event log: "+err.Error())
			return
		}
	}
	n := s.metrics.objectsAdded.Add(1)
	act := s.tracer.Start(tc, "add_object")
	act.Annotate(trace.Attr{Key: "object", Value: req.Object})
	seq := s.enqueue(ingestItem{
		mut: &mutation{object: req.Object, candidates: cands}, at: tc.Start, tr: act})
	writeJSON(w, map[string]any{
		"accepted": true, "object": req.Object, "added_objects": n,
		"trace_id": tc.TraceID.String(), "shard": 0, "seq": seq,
	})
}

// handleAddRecord ingests a new source record. The object may be known or
// brand new (records define objects, exactly as in a seed dataset); the
// value must already exist in the value hierarchy — new-value hierarchy
// nodes are out of scope for live growth.
func (s *Server) handleAddRecord(w http.ResponseWriter, r *http.Request) {
	var rec data.Record
	if !decodeRequest(w, r, &rec) {
		return
	}
	if rec.Object == "" || rec.Source == "" || rec.Value == "" {
		httpError(w, http.StatusBadRequest, "object, source and value are required")
		return
	}
	if err := s.checkHierarchyValue(rec.Value); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if !s.beginIngest() {
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer s.ingestWG.Done()
	snap := s.snap()

	key := [2]string{rec.Object, rec.Source}
	s.mutMu.Lock()
	if s.addedClaims[key] {
		s.mutMu.Unlock()
		httpError(w, http.StatusConflict,
			fmt.Sprintf("source %q already claims object %q", rec.Source, rec.Object))
		return
	}
	if _, dup := snap.Idx.SourceClaim(rec.Object, rec.Source); dup {
		s.mutMu.Unlock()
		httpError(w, http.StatusConflict,
			fmt.Sprintf("source %q already claims object %q", rec.Source, rec.Object))
		return
	}
	s.addedClaims[key] = true
	// A record implicitly creates its object; hold a reference on the name
	// so a concurrent POST /objects for it 409s deterministically instead
	// of depending on whether this record reached a snapshot yet.
	s.addedObjects[rec.Object]++
	s.mutMu.Unlock()

	tc := s.boundaryCtx(r)
	if s.cfg.Log != nil {
		if err := s.cfg.Log.AppendAddRecord(rec); err != nil {
			s.mutMu.Lock()
			delete(s.addedClaims, key)
			s.mutMu.Unlock()
			s.releaseObjectRef(rec.Object)
			s.log.Error("event log append failed",
				"trace_id", tc.TraceID.String(), "kind", "add_record",
				"object", rec.Object, "source", rec.Source, "err", err)
			httpError(w, http.StatusInternalServerError, "event log: "+err.Error())
			return
		}
	}
	n := s.metrics.recordsAdded.Add(1)
	act := s.tracer.Start(tc, "add_record")
	act.Annotate(trace.Attr{Key: "object", Value: rec.Object}, trace.Attr{Key: "source", Value: rec.Source})
	seq := s.enqueue(ingestItem{
		mut: &mutation{object: rec.Object, record: &rec}, at: tc.Start, tr: act})
	writeJSON(w, map[string]any{
		"accepted": true, "object": rec.Object, "added_records": n,
		"trace_id": tc.TraceID.String(), "shard": 0, "seq": seq,
	})
}

// releaseObjectRef drops one accepted-creator reference on an object name
// (the rollback of a failed durable append), deleting the entry when no
// other accepted request holds it.
func (s *Server) releaseObjectRef(object string) {
	s.mutMu.Lock()
	if s.addedObjects[object]--; s.addedObjects[object] <= 0 {
		delete(s.addedObjects, object)
	}
	s.mutMu.Unlock()
}

// checkHierarchyValue enforces the open-world scoping rule: when the
// campaign has a value hierarchy, every live-added candidate or record
// value must already be a node in it. Campaigns without a hierarchy (flat
// or free-text workloads) accept any value.
func (s *Server) checkHierarchyValue(v string) error {
	if h := s.cfg.Dataset.H; h != nil && !h.Contains(v) {
		return fmt.Errorf("value %q is not in the hierarchy (new-value nodes cannot be added live)", v)
	}
	return nil
}

// dedupStrings drops duplicates, keeping first-seen order.
func dedupStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// handleTruths serves the engine's typed truth payload: map[object]value
// for categorical campaigns, map[object]float64 for numeric ones, and
// map[object][]value for multi-truth ones.
func (s *Server) handleTruths(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.snap().St.Truths())
}

func (s *Server) handleConfidence(w http.ResponseWriter, r *http.Request) {
	object := r.URL.Query().Get("object")
	snap := s.snap()
	oid, ok := snap.Idx.ObjectID(object)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown object %q", object))
		return
	}
	writeJSON(w, snap.St.Confidence(oid))
}

func (s *Server) handleTrust(w http.ResponseWriter, r *http.Request) {
	snap := s.snap()
	writeJSON(w, map[string]any{
		"sources": snap.Res.SourceTrust,
		"workers": snap.Res.WorkerTrust,
	})
}

// Stats is the campaign status payload.
type Stats struct {
	Objects int `json:"objects"`
	Records int `json:"records"`
	// Answers counts accepted crowd answers (immediately, including any
	// still queued for inference); Applied counts answers folded into the
	// snapshot the rest of this payload was computed from. AddedObjects /
	// AddedRecords count accepted open-world mutations the same way, with
	// AppliedMutations their folded-in counterpart.
	Answers          int    `json:"answers"`
	Applied          int    `json:"applied_answers"`
	AddedObjects     int    `json:"added_objects,omitempty"`
	AddedRecords     int    `json:"added_records,omitempty"`
	AppliedMutations int    `json:"applied_mutations,omitempty"`
	Rounds           int64  `json:"inference_runs"`
	TruthModel       string `json:"truth_model"`
	Inference        string `json:"inference"`
	Assignment       string `json:"assignment"`
	// Quality holds the engine's gold-standard metrics, keyed by metric
	// name (accuracy / gen_accuracy / avg_distance for categorical, mae /
	// re for numeric, precision / recall / f1 for multi-truth).
	Quality map[string]float64 `json:"quality,omitempty"`
	HasGold bool               `json:"has_gold"`
	// Pipeline / plan-maintenance observability. Shards is always 1 and
	// ShardQueueDepth the one ingest queue's accepted-but-unfolded depth, a
	// one-element list: the shape clients of the sharded pipeline parse.
	// SnapshotAgeMS is how long ago the served snapshot was published.
	// PlanAdvances / PlanBuilds
	// split publishes by whether the assignment plan was advanced from the
	// previous snapshot's or built from scratch; PlanFallbacks counts /task
	// requests that found a stale attached plan, or one built for another
	// assigner, and rebuilt one in-line (always 0 unless plan threading
	// regresses).
	Shards          int   `json:"shards"`
	ShardQueueDepth []int `json:"shard_queue_depth"`
	SnapshotAgeMS   int64 `json:"snapshot_age_ms"`
	PlanBuilds      int64 `json:"plan_builds"`
	PlanAdvances    int64 `json:"plan_advances"`
	PlanFallbacks   int64 `json:"plan_fallbacks"`
	// Visibility lineage, the operator's stalled-pipeline view without
	// scraping /metrics: UptimeSeconds since this server instance booted;
	// Watermarks is the served snapshot's visibility watermark as a
	// one-element list (an item acknowledged with (shard 0, seq) is visible
	// once Watermarks[0] >= seq); LastPublishUnixMS is when the served
	// snapshot was published. A nonzero ShardQueueDepth with Watermarks unchanged across
	// polls is a stalled pipeline.
	UptimeSeconds     float64 `json:"uptime_seconds"`
	Watermarks        []int64 `json:"watermark"`
	LastPublishUnixMS int64   `json:"last_publish_unix_ms"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// Stats builds the campaign status payload (GET /stats, and the campaign
// manager's listing endpoints) as a view over one snapshot load — so round
// and applied counts are mutually consistent even during a refit — and the
// metrics registry: every accepted/plan count below is the value /metrics
// exports, read from the same counter.
func (s *Server) Stats() Stats {
	snap := s.snap()
	base := s.cfg.Dataset
	addedRecords := int(s.metrics.recordsAdded.Value())
	st := Stats{
		Objects: snap.Idx.NumObjects(),
		// The base dataset is immutable; live additions are counted
		// separately (the pipeline's working copy cannot be read here
		// without racing it).
		Records:          len(base.Records) + addedRecords,
		Answers:          int(s.metrics.answersAccepted.Value()),
		Applied:          snap.Answers,
		AddedObjects:     int(s.metrics.objectsAdded.Value()),
		AddedRecords:     addedRecords,
		AppliedMutations: snap.Mutations,
		Rounds:           snap.Round,
		TruthModel:       string(s.cfg.Engine.Model()),
		Inference:        s.cfg.Engine.Name(),
		Assignment:       s.cfg.Assigner.Name(),
		HasGold:          len(base.Truth) > 0,
		Shards:           1,
		ShardQueueDepth:  []int{int(s.queueDepth.Load())},
		PlanBuilds:       s.metrics.planBuilds.Value(),
		PlanAdvances:     s.metrics.planAdvances.Value(),
		PlanFallbacks:    s.planFallbacks.Load(),
		Watermarks:       []int64{snap.Watermark},
	}
	st.UptimeSeconds = time.Since(s.startTime).Seconds() //tdh:wallclock diagnostics gauge in /stats
	if !snap.PublishedAt.IsZero() {
		st.SnapshotAgeMS = time.Since(snap.PublishedAt).Milliseconds() //tdh:wallclock diagnostics gauge in /stats
		st.LastPublishUnixMS = snap.PublishedAt.UnixMilli()
	}
	if st.HasGold {
		st.Quality = snap.St.Quality(base, snap.Idx)
	}
	return st
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	snap, err := s.Refresh()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, map[string]any{"refreshed": true, "inference_runs": snap.Round})
}

// Truths returns the current inferred truths (programmatic twin of GET
// /truths).
func (s *Server) Truths() map[string]string {
	snap := s.snap()
	return snap.Res.TruthMap()
}

// maxBodyBytes caps the request bodies of POST /answer, /objects and
// /records: each is one small JSON object from an untrusted client.
const maxBodyBytes = 1 << 20

// decodeRequest decodes a size-capped JSON request body into v. On failure it
// answers 413 (body over maxBodyBytes) or 400 (malformed) and returns false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	} else {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// SortedObjects lists the campaign's objects (stable order), for clients
// that page through the corpus.
func (s *Server) SortedObjects() []string {
	out := append([]string(nil), s.snap().Idx.Objects...)
	sort.Strings(out)
	return out
}
