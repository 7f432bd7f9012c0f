package server

import (
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// The server's /metrics instrumentation. Every Server carries an
// obs.Registry (its own by default, or a shared one injected through
// Config.Metrics so the campaign layer can scrape and label it): HTTP
// middleware records per-route latency histograms, status-class counters
// and an in-flight gauge; the ingest pipeline records stage durations,
// epoch batch sizes and publish counts (pipeline.go observes into the
// instruments below); queue depths and snapshot age are gauge callbacks
// evaluated at scrape time. Metric names follow the Prometheus conventions:
// seconds for durations, _total for counters, base units everywhere.

// Stage labels for tdh_pipeline_stage_seconds.
const (
	stageDrain   = "drain"
	stageFold    = "fold"
	stagePublish = "publish"
	stagePlan    = "plan_advance"
	stageRefit   = "refit"
)

// serverMetrics holds the pre-resolved instruments so the hot paths never
// touch the registry (registration takes a lock; Observe/Inc do not).
type serverMetrics struct {
	reg *obs.Registry
	// tracer is the server's span recorder; the middleware extracts and
	// injects W3C traceparent at the same boundary it measures latency.
	tracer *trace.Tracer

	inFlight *obs.Gauge
	httpDur  map[string]*obs.Histogram  // route -> latency histogram
	httpResp map[string][5]*obs.Counter // route -> status-class counters (1xx..5xx)

	// The accepted-ingest and plan-maintenance counters are the only storage
	// of these counts: /stats reads them back (Server.Stats).
	answersAccepted *obs.Counter
	objectsAdded    *obs.Counter // tdh_mutations_accepted_total{kind="add_object"}
	recordsAdded    *obs.Counter // tdh_mutations_accepted_total{kind="add_record"}
	ingestRejected  *obs.Counter
	planBuilds      *obs.Counter // publishes that built the assignment plan from scratch
	planAdvances    *obs.Counter // publishes that advanced the previous snapshot's plan
	ueaiMax         *obs.Gauge   // head of the served plan's UEAI ranking; 0 unless EAI
	settledObjects  *obs.Gauge   // objects the served plan's no-flip certificate settles; 0 unless EAI

	// One observation per /task an EAI assigner served: the EAI
	// evaluations it ran (EAIStats.Evaluated).
	eaiEvaluated *obs.Histogram

	stageDur   map[string]*obs.Histogram // pipeline stage -> duration histogram
	batchSize  *obs.Histogram            // answers folded per publish cycle
	publishes  map[bool]*obs.Counter     // key: full refit?
	visibility *obs.Histogram            // ingest accept -> covering publish

	// Inference health of the last full refit (TDH only; other engines never
	// set them): E/M evaluations run and the last one's max confidence change.
	emIterations *obs.Gauge
	emFinalDelta *obs.Gauge

	// What each land after the boot fit changed (pipeline.backOff), and the
	// count trigger it leaves in force.
	refitFlips     *obs.Histogram
	refitDrift     map[string]*obs.Histogram // param -> max |Δ| histogram
	refitThreshold *obs.Gauge
}

// Param labels for tdh_refit_drift.
const (
	driftMu          = "mu"
	driftSourceTrust = "source_trust"
	driftWorkerTrust = "worker_trust"
)

var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// newServerMetrics registers every instrument on reg. Called once from New;
// the GaugeFunc callbacks close over the server and read atomics only.
func newServerMetrics(s *Server, reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		reg:      reg,
		tracer:   s.tracer,
		inFlight: reg.Gauge("tdh_http_in_flight_requests", "requests currently being served"),
		httpDur:  make(map[string]*obs.Histogram, len(routes)),
		httpResp: make(map[string][5]*obs.Counter, len(routes)),
		answersAccepted: reg.Counter("tdh_answers_accepted_total",
			"crowd answers accepted (acknowledged durable and queued for inference)"),
		objectsAdded: reg.Counter("tdh_mutations_accepted_total",
			"open-world dataset mutations accepted, by kind", "kind", "add_object"),
		recordsAdded: reg.Counter("tdh_mutations_accepted_total",
			"open-world dataset mutations accepted, by kind", "kind", "add_record"),
		ingestRejected: reg.Counter("tdh_ingest_rejected_total",
			"answers rejected with 429 because the ingest queue held policy.reject_queue_depth items"),
		planBuilds: reg.Counter("tdh_plan_builds_total",
			"publishes that built the assignment plan from scratch"),
		planAdvances: reg.Counter("tdh_plan_advances_total",
			"publishes that advanced the previous snapshot's assignment plan"),
		ueaiMax: reg.Gauge("tdh_ueai_max",
			"largest Lemma 4.1 bound of the served plan: no task it can hand out adds more than this to the expected accuracy (0 unless the campaign assigns by EAI on a TDH model)"),
		eaiEvaluated: reg.Histogram("tdh_eai_evaluated",
			"EAI evaluations one /task ran: for a returning worker, one per unanswered object the no-flip certificate leaves unsettled; for a cold worker, the entries of the plan's cold-worker score ranking it read",
			append([]float64{0}, obs.ExpBuckets(1, 2, 15)...)),
		settledObjects: reg.Gauge("tdh_settled_objects",
			"objects of the served plan no single further answer can flip before the next refit (the no-flip certificate; 0 unless the campaign assigns by EAI on a TDH model)"),
		stageDur:  make(map[string]*obs.Histogram, 5),
		batchSize: reg.Histogram("tdh_pipeline_batch_size", "answers folded per publish cycle", obs.SizeBuckets()),
		visibility: reg.Histogram("tdh_visibility_seconds",
			"ingest-to-visible latency: accept of an answer or mutation to the publish of the snapshot whose watermark covers it",
			obs.LatencyBuckets()),
		publishes: map[bool]*obs.Counter{
			false: reg.Counter("tdh_publishes_total", "snapshots published", "kind", "incremental"),
			true:  reg.Counter("tdh_publishes_total", "snapshots published", "kind", "refit"),
		},
		emIterations: reg.Gauge("tdh_em_iterations",
			"E/M evaluations the last full refit ran (the fit stopped at the cap if this equals MaxIter and tdh_em_final_delta is at or above the tolerance)"),
		emFinalDelta: reg.Gauge("tdh_em_final_delta",
			"max confidence change of the last full refit's final E/M evaluation; below the tolerance (default 1e-7) means converged"),
		refitFlips: reg.Histogram("tdh_refit_truth_flips",
			"objects whose truth a landed refit changed against the published state it replaced",
			append([]float64{0}, obs.SizeBuckets()...)),
		refitDrift: make(map[string]*obs.Histogram, 3),
		refitThreshold: reg.Gauge("tdh_refit_answers_threshold",
			"answers and mutations drained since the installed fit that trigger the next refit: refit_answers, doubled per land that flipped no truth (negative: count refits off)"),
	}
	for _, param := range []string{driftMu, driftSourceTrust, driftWorkerTrust} {
		m.refitDrift[param] = reg.Histogram("tdh_refit_drift",
			"largest change a landed refit made to one parameter against the published state it replaced",
			obs.ExpBuckets(1e-7, 10, 8), "param", param)
	}
	for _, rt := range routes {
		if rt.Instrumented {
			m.httpDur[rt.Path] = reg.Histogram("tdh_http_request_duration_seconds",
				"HTTP request latency by route", obs.LatencyBuckets(), "route", rt.Path)
			var cs [5]*obs.Counter
			for i, class := range statusClasses {
				cs[i] = reg.Counter("tdh_http_responses_total",
					"HTTP responses by route and status class", "route", rt.Path, "class", class)
			}
			m.httpResp[rt.Path] = cs
		}
	}
	for _, stage := range []string{stageDrain, stageFold, stagePublish, stagePlan, stageRefit} {
		m.stageDur[stage] = reg.Histogram("tdh_pipeline_stage_seconds",
			"inference pipeline stage durations", obs.LatencyBuckets(), "stage", stage)
	}
	reg.CounterFunc("tdh_plan_fallbacks_total",
		"/task requests that found a stale attached plan, or one built for another assigner, and rebuilt one in-line (nonzero means plan threading regressed)",
		func() float64 { return float64(s.planFallbacks.Load()) })
	reg.GaugeFunc("tdh_snapshot_age_seconds",
		"age of the published snapshot every read is served from",
		func() float64 {
			if sn := s.snap(); sn != nil && !sn.PublishedAt.IsZero() {
				return time.Since(sn.PublishedAt).Seconds() //tdh:wallclock scrape-time gauge; never feeds replayed state
			}
			return 0
		})
	reg.GaugeFunc("tdh_ingest_queue_depth",
		"items accepted but not yet folded (enqueue/release accounting, stable under concurrent drains)",
		func() float64 { return float64(s.queueDepth.Load()) })
	return m
}

// observeStage records one pipeline stage duration, given its start time.
//
//tdh:wallclock stage timing is observability only; replayed state never reads it
func (m *serverMetrics) observeStage(stage string, start time.Time) {
	m.stageDur[stage].Observe(time.Since(start).Seconds())
}

// statusWriter captures the response status code for the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps one route's handler with the HTTP middleware: in-flight
// gauge, per-route latency histogram, status-class counter — and the W3C
// trace boundary: the incoming traceparent (if any; malformed ones are
// ignored, never an error) becomes the request's trace context, and the
// response carries the server-side traceparent so callers can correlate
// their request with the span tree GET /trace returns.
//
//tdh:wallclock request latency measurement is observability only; never feeds replayed state
func (m *serverMetrics) instrument(route string, h http.Handler) http.Handler {
	dur, resp := m.httpDur[route], m.httpResp[route]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.inFlight.Add(1)
		start := time.Now()
		tc := m.tracer.Extract(r.Header.Get("traceparent"), start)
		w.Header().Set("Traceparent", tc.Header())
		r = r.WithContext(trace.NewContext(r.Context(), tc))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		dur.Observe(time.Since(start).Seconds())
		class := sw.code/100 - 1
		if class < 0 || class >= len(resp) {
			class = 4 // out-of-range code: count as 5xx, the alarming class
		}
		resp[class].Inc()
		m.inFlight.Add(-1)
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.reg.Handler().ServeHTTP(w, r)
}

// Metrics exposes the server's metrics registry (the campaign layer scrapes
// it with a campaign label; embedders may register their own instruments on
// it). Callers must not re-register server metric names with other types.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }
