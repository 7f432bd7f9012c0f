package server

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs/trace"
)

// The trace read endpoint: GET /trace (the path the campaign proxy strips
// /v1/campaigns/{id}/trace to) returns the most recent completed traces from the ring, newest first, as JSON span trees —
// the root span is the HTTP accept (one answer or mutation), its children
// the pipeline stages (queue wait, drain, fold or refit, plan_advance,
// publish) that carried it to snapshot visibility. ?limit=N caps the count
// (default 32, bounded by the ring size).

// traceJSON is one completed trace on the wire.
type traceJSON struct {
	TraceID string    `json:"trace_id"`
	Root    *spanJSON `json:"root"`
}

// spanJSON is one span node; children are nested under their parent.
type spanJSON struct {
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"` // remote parent, root span only
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	End        time.Time         `json:"end"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []*spanJSON       `json:"children,omitempty"`
}

func spanToJSON(s trace.Span) *spanJSON {
	out := &spanJSON{
		SpanID:     s.ID.String(),
		Name:       s.Name,
		Start:      s.Start,
		End:        s.End,
		DurationUS: s.End.Sub(s.Start).Microseconds(),
	}
	if len(s.Attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	return out
}

// traceToJSON builds the span tree. Spans are recorded root first with
// children after their parents, so a single forward pass attaches every
// span; one whose parent is unknown attaches to the root.
func traceToJSON(t *trace.Trace) traceJSON {
	root := spanToJSON(t.Spans[0])
	if !t.Spans[0].Parent.IsZero() {
		root.ParentID = t.Spans[0].Parent.String()
	}
	nodes := map[trace.SpanID]*spanJSON{t.Spans[0].ID: root}
	for _, s := range t.Spans[1:] {
		node := spanToJSON(s)
		parent, ok := nodes[s.Parent]
		if !ok {
			parent = root
		}
		parent.Children = append(parent.Children, node)
		nodes[s.ID] = node
	}
	return traceJSON{TraceID: t.ID.String(), Root: root}
}

// handleTrace serves the recent-trace ring.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	limit := 32
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	recent := s.tracer.Recent(limit)
	out := make([]traceJSON, 0, len(recent))
	for _, t := range recent {
		out = append(out, traceToJSON(t))
	}
	writeJSON(w, map[string]any{"count": len(out), "traces": out})
}
