package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/eventlog"
	"repro/internal/server"
)

// The v1 multi-campaign API. Admin plane:
//
//	GET    /v1/campaigns               list campaigns, sorted by id (?state= and ?truth_model= filter)
//	POST   /v1/campaigns               create a campaign (spec + dataset)
//	GET    /v1/campaigns/{id}          one campaign's detail
//	DELETE /v1/campaigns/{id}          delete a closed or draft campaign (409 otherwise)
//	POST   /v1/campaigns/{id}/start    draft  -> live
//	POST   /v1/campaigns/{id}/pause    live   -> paused
//	POST   /v1/campaigns/{id}/resume   paused -> live
//	POST   /v1/campaigns/{id}/close    live|paused -> closed (terminal)
//
// Data plane, per campaign: every route of the embedded server.Handler's
// table (server.RouteFor) under /v1/campaigns/{id}: task, answer, objects,
// records, truths, confidence, trust, stats, refresh, metrics and trace.
//
// Plus GET /metrics at the top level: every booted campaign's registry
// aggregated under a campaign label, with manager-level gauges
// (metrics.go).
//
// Lifecycle is enforced here: draft campaigns serve nothing (409); paused
// and closed campaigns reject the data-plane routes that write (task
// hand-out, answer/mutation ingestion, refresh) with 409 while reads keep
// serving. A request with a known path but wrong method gets 405 with an
// Allow header on every route: the Go ServeMux handles the method-scoped
// patterns, and the catch-all proxy the rest.

// lifecycleVerbs are the per-campaign POST endpoints that move a campaign
// between states. Their patterns are registered on the mux, so only their
// wrong-method requests fall through to the catch-all proxy.
var lifecycleVerbs = map[string]func(*Manager, string) error{
	"start":  (*Manager).Start,
	"pause":  (*Manager).Pause,
	"resume": (*Manager).Resume,
	"close":  (*Manager).CloseCampaign,
}

// Handler returns the /v1 API handler.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	mux.HandleFunc("GET /v1/campaigns", m.handleList)
	mux.HandleFunc("POST /v1/campaigns", m.handleCreate)
	mux.HandleFunc("GET /v1/campaigns/{id}", m.handleGet)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", m.handleDelete)
	for verb, op := range lifecycleVerbs {
		mux.HandleFunc("POST /v1/campaigns/{id}/"+verb, m.lifecycle(op))
	}
	mux.HandleFunc("/v1/campaigns/{id}/{endpoint}", m.handleProxy)
	return mux
}

// Info is the campaign detail payload: persisted metadata plus, for booted
// campaigns, live stats and what boot-time recovery replayed.
type Info struct {
	Meta
	Stats     *server.Stats          `json:"stats,omitempty"`
	Recovered *eventlog.ReplayResult `json:"recovered,omitempty"`
}

func campaignInfo(c *Campaign) Info {
	info := Info{Meta: c.Meta()}
	if srv := c.Server(); srv != nil {
		st := srv.Stats()
		info.Stats = &st
		if rec := c.Recovered(); rec != (eventlog.ReplayResult{}) {
			info.Recovered = &rec
		}
	}
	return info
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	var filter State
	if q := r.URL.Query().Get("state"); q != "" {
		filter = State(q)
		if !filter.valid() {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown state %q", q))
			return
		}
	}
	var modelFilter engine.TruthModel
	if q := r.URL.Query().Get("truth_model"); q != "" {
		tm, err := engine.ParseTruthModel(q)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		modelFilter = tm
	}
	campaigns := m.Campaigns() // sorted by id: list order is deterministic
	out := make([]Info, 0, len(campaigns))
	for _, c := range campaigns {
		if filter != "" && c.State() != filter {
			continue
		}
		if modelFilter != "" && c.Meta().TruthModel != string(modelFilter) {
			continue
		}
		out = append(out, campaignInfo(c))
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": out})
}

func (m *Manager) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := m.Delete(id); err != nil {
		httpError(w, statusFor(err, http.StatusInternalServerError), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	c, ok := m.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown campaign %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, campaignInfo(c))
}

// CreateRequest is the POST /v1/campaigns body: the campaign spec, the
// seed dataset in the data package's wire format (records, hierarchy root
// and edges, optional truth/domains), and the initial state — "draft"
// (default) parks the campaign for inspection, "live" starts serving
// immediately.
type CreateRequest struct {
	Spec
	State   State           `json:"state,omitempty"`
	Dataset json.RawMessage `json:"dataset"`
}

func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	switch req.State {
	case "", StateDraft, StateLive:
	default:
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("initial state must be %q or %q, got %q", StateDraft, StateLive, req.State))
		return
	}
	if len(req.Dataset) == 0 {
		httpError(w, http.StatusBadRequest, "missing dataset")
		return
	}
	ds, err := data.Decode(req.Dataset)
	if err != nil {
		httpError(w, http.StatusBadRequest, "dataset: "+err.Error())
		return
	}
	c, err := m.Create(req.Spec, ds)
	if err != nil {
		httpError(w, statusFor(err, http.StatusBadRequest), err.Error())
		return
	}
	if req.State == StateLive {
		if err := m.Start(c.ID()); err != nil {
			// The campaign exists as a draft; surface the boot failure so the
			// operator can fix the config and retry the start.
			httpError(w, statusFor(err, http.StatusInternalServerError),
				fmt.Sprintf("campaign %s created as draft, start failed: %v", c.ID(), err))
			return
		}
	}
	writeJSON(w, http.StatusCreated, campaignInfo(c))
}

// lifecycle adapts a manager transition to an HTTP handler.
func (m *Manager) lifecycle(op func(*Manager, string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := op(m, id); err != nil {
			httpError(w, statusFor(err, http.StatusInternalServerError), err.Error())
			return
		}
		c, _ := m.Get(id)
		writeJSON(w, http.StatusOK, campaignInfo(c))
	}
}

// handleProxy gates a per-campaign data-plane request on the lifecycle
// state and forwards it to the campaign's embedded server handler.
func (m *Manager) handleProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c, ok := m.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown campaign %q", id))
		return
	}
	state, h := c.serveInfo()
	endpoint := r.PathValue("endpoint")
	route, known := server.RouteFor("/" + endpoint)
	if lifecycleVerbs[endpoint] != nil {
		route, known = server.Route{Method: http.MethodPost}, true // only a wrong method reaches here
	}
	if !known {
		// Before the lifecycle gate: a path that exists in no state is 404 in
		// every state, not "is a draft".
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown endpoint %q", endpoint))
		return
	}
	if r.Method != route.Method {
		w.Header().Set("Allow", route.Method)
		httpError(w, http.StatusMethodNotAllowed,
			fmt.Sprintf("method %s not allowed for %s; use %s", r.Method, endpoint, route.Method))
		return
	}
	switch {
	case state == StateDraft:
		httpError(w, http.StatusConflict,
			fmt.Sprintf("campaign %q is a draft; POST /v1/campaigns/%s/start first", id, id))
		return
	case state != StateLive && route.Writes:
		httpError(w, http.StatusConflict,
			fmt.Sprintf("campaign %q is %s; %s is only served while live", id, state, endpoint))
		return
	}
	http.StripPrefix("/v1/campaigns/"+id, h).ServeHTTP(w, r)
}

// statusFor maps the package's sentinel errors onto HTTP statuses,
// falling back to fallback for everything else.
func statusFor(err error, fallback int) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, ErrState):
		return http.StatusConflict
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrConfig):
		return http.StatusUnprocessableEntity
	}
	return fallback
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
