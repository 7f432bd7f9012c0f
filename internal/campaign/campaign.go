// Package campaign hosts many concurrent truth-discovery campaigns in one
// process. A Campaign is a first-class managed entity — a named instance of
// the crowdsourcing coordinator (internal/server) with its own dataset,
// durable event log and per-campaign configuration — owned by a Manager
// that keeps a registry of every campaign under one data directory,
// recovers them all at boot, and exposes the admin + data-plane HTTP API
// under /v1/campaigns (http.go).
//
// Campaigns are open-world: beyond answers, the per-campaign event log
// (internal/eventlog) records typed add_object / add_record mutations, so a
// live campaign's dataset keeps growing while workers answer and the whole
// history — answers and growth interleaved — replays at boot. Logs written
// by the older answers-only format upgrade in place: bare answer lines and
// typed events coexist in one file.
//
// Lifecycle. Every campaign moves through a state machine that is enforced
// at the HTTP layer:
//
//	draft ──start──▶ live ◀──resume── paused
//	                  │  ──pause────▶
//	                  │        │
//	                  └─close──┴────▶ closed (terminal)
//
// A draft campaign exists on disk (dataset uploaded, config fixed) but
// serves nothing. A live campaign serves everything. Paused and closed
// campaigns keep serving reads (/truths, /confidence, /trust, /stats) but
// reject task hand-out and answer ingestion with 409, so a campaign can be
// halted for inspection — or ended — without taking its results offline.
//
// On-disk layout (one directory per campaign under <data-dir>/campaigns):
//
//	<data-dir>/campaigns/<id>/campaign.json  metadata, config and state
//	<data-dir>/campaigns/<id>/dataset.json   seed dataset + value hierarchy
//	<data-dir>/campaigns/<id>/answers.jsonl  append-only event log (answers
//	                                         + dataset mutations; the name
//	                                         is kept for compatibility with
//	                                         answers-only campaigns)
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/eventlog"
	"repro/internal/obs"
	"repro/internal/server"
)

// State is a campaign's lifecycle state.
type State string

const (
	StateDraft  State = "draft"
	StateLive   State = "live"
	StatePaused State = "paused"
	StateClosed State = "closed"
)

func (s State) valid() bool {
	switch s {
	case StateDraft, StateLive, StatePaused, StateClosed:
		return true
	}
	return false
}

// PolicySpec is the JSON-friendly shape of server.RefitPolicy (durations as
// milliseconds), persisted per campaign. Zero values take the server
// defaults; negative values disable, mirroring RefitPolicy. The
// "queue_size" and "batch_size" keys, from before the ingest queue's buffer
// and a cycle's drain cap became constants, are ignored.
type PolicySpec struct {
	// RefitAnswers and RefitStalenessMS are RefitPolicy's two refit
	// triggers, both counted from the last installed refit; the refit they
	// start runs beside the campaign's pipeline, which keeps folding and
	// publishing meanwhile. RefitAnswers is the floor of the count
	// threshold in force, which doubles after each refit that flipped no
	// truth over a state that held nothing back and resets on a flip or a
	// held state; RefitStalenessMS stays the hard bound, and with it
	// disabled the count threshold keeps doubling while refits flip
	// nothing.
	RefitAnswers     int   `json:"refit_answers,omitempty"`
	RefitStalenessMS int64 `json:"refit_staleness_ms,omitempty"`
	// Shards is read by nothing. It stays so existing specs and
	// campaign.json files still parse.
	//
	// Deprecated: a campaign has one ingest queue.
	Shards int `json:"shards,omitempty"`
	// RejectQueueDepth, when > 0, turns on admission control: once the
	// ingest queue holds this many accepted-but-unfolded items, answers are
	// rejected with 429 + Retry-After instead of blocking (0 keeps blocking
	// backpressure).
	RejectQueueDepth int `json:"reject_queue_depth,omitempty"`
}

func (p PolicySpec) refitPolicy() server.RefitPolicy {
	return server.RefitPolicy{
		MaxAnswers:       p.RefitAnswers,
		MaxStaleness:     time.Duration(p.RefitStalenessMS) * time.Millisecond,
		RejectQueueDepth: p.RejectQueueDepth,
	}
}

// Meta is the persisted identity, configuration and lifecycle state of a
// campaign (campaign.json).
type Meta struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State State  `json:"state"`
	// TruthModel is the campaign's truth-model engine (categorical /
	// numeric / multi_truth). Absent in campaign.json files from before
	// truth models existed; readMeta normalizes the empty value to
	// categorical so existing data directories boot unchanged.
	TruthModel  string     `json:"truth_model,omitempty"`
	Inferencer  string     `json:"inferencer"`
	Assigner    string     `json:"assigner"`
	K           int        `json:"k"`
	Seed        int64      `json:"seed"`
	OpenAnswers bool       `json:"open_answers,omitempty"`
	Policy      PolicySpec `json:"policy,omitempty"`
	CreatedAt   time.Time  `json:"created_at"`
	UpdatedAt   time.Time  `json:"updated_at"`
}

// Campaign is one hosted campaign: persisted Meta plus, once started, the
// live coordinator and its answer log. All mutable fields are guarded by
// mu; the Manager holds no lock while a campaign boots or shuts down, so
// slow campaigns never block the registry.
type Campaign struct {
	dir string

	mu        sync.Mutex
	meta      Meta
	srv       *server.Server // nil while draft
	log       *eventlog.Log  // nil while draft or closed
	handler   http.Handler   // srv.Handler(), nil while draft
	recovered eventlog.ReplayResult
}

// ID returns the campaign's immutable identifier.
func (c *Campaign) ID() string { return c.meta.ID }

// State returns the current lifecycle state.
func (c *Campaign) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta.State
}

// Meta returns a copy of the persisted metadata.
func (c *Campaign) Meta() Meta {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta
}

// Recovered reports what the boot-time log replay recovered for this
// campaign (zero for campaigns started fresh in this process).
func (c *Campaign) Recovered() eventlog.ReplayResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recovered
}

// Server exposes the underlying coordinator, or nil for a draft campaign.
// Callers must treat it as read-only with respect to lifecycle: Close is
// the Manager's job.
func (c *Campaign) Server() *server.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srv
}

// serveInfo returns what the HTTP gate needs in one critical section: the
// lifecycle state and the data-plane handler (nil while draft).
func (c *Campaign) serveInfo() (State, http.Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta.State, c.handler
}

// boot loads the campaign's dataset, replays its event log into it —
// answers, object adds and record adds interleaved in acknowledgment order
// — and starts the coordinator. With openLog, the log is opened for
// appending and wired as the server's durable event sink (live/paused
// campaigns); closed campaigns boot without a log, serving reads off the
// recovered state. This is the only place in the tree that wires engine +
// registry + event log + server.New. Callers hold c.mu.
func (c *Campaign) boot(opts Options, openLog bool) error {
	ds, err := data.LoadFile(filepath.Join(c.dir, datasetFile))
	if err != nil {
		return fmt.Errorf("campaign %s: dataset: %w", c.meta.ID, err)
	}
	logPath := filepath.Join(c.dir, logFile)
	rec, err := eventlog.Replay(logPath, ds)
	if err != nil {
		return fmt.Errorf("campaign %s: replay: %w", c.meta.ID, err)
	}
	// Engine construction owns all model-specific wiring. Unknown names
	// surface as ErrConfig (HTTP 422), not as an opaque boot error.
	tm, err := engine.ParseTruthModel(c.meta.TruthModel)
	if err != nil {
		return fmt.Errorf("campaign %s: %w: %v", c.meta.ID, ErrConfig, err)
	}
	eng, err := engine.New(tm, c.meta.Inferencer, engine.Config{Seed: c.meta.Seed})
	if err != nil {
		return fmt.Errorf("campaign %s: %w: %v", c.meta.ID, ErrConfig, err)
	}
	assigner, err := engine.NewAssigner(tm, c.meta.Assigner)
	if err != nil {
		return fmt.Errorf("campaign %s: %w: %v", c.meta.ID, ErrConfig, err)
	}
	// One registry per campaign, shared by the coordinator and its event
	// log; the Manager scrapes them all under a campaign label (GET
	// /metrics) and each campaign serves its own at
	// /v1/campaigns/{id}/metrics.
	reg := obs.NewRegistry()
	// Every log line from this campaign's coordinator and event log carries
	// the campaign id, so one process hosting many campaigns stays greppable.
	clog := opts.logger().With("campaign", c.meta.ID)
	cfg := server.Config{
		Dataset:     ds,
		Engine:      eng,
		Assigner:    assigner,
		K:           c.meta.K,
		Seed:        c.meta.Seed,
		Policy:      c.meta.Policy.refitPolicy(),
		OpenAnswers: c.meta.OpenAnswers,
		Metrics:     reg,
		Logger:      clog,
	}
	var l *eventlog.Log
	if openLog {
		if l, err = eventlog.Open(logPath,
			eventlog.WithMetrics(eventlog.NewMetrics(reg)), eventlog.WithLogger(clog)); err != nil {
			return fmt.Errorf("campaign %s: %w", c.meta.ID, err)
		}
		cfg.Log = l
	}
	srv, err := server.New(cfg)
	if err != nil {
		if l != nil {
			l.Close()
		}
		return fmt.Errorf("campaign %s: %w", c.meta.ID, err)
	}
	c.srv, c.log, c.handler, c.recovered = srv, l, srv.Handler(), rec
	return nil
}

// stop is boot's inverse: it drains the coordinator pipeline into a final
// snapshot (which keeps serving reads) and closes the log file handle,
// without touching persisted state. Callers hold c.mu.
func (c *Campaign) stop() error {
	var err error
	if c.srv != nil {
		err = c.srv.Close()
	}
	if c.log != nil {
		if cerr := c.log.Close(); err == nil {
			err = cerr
		}
		c.log = nil
	}
	return err
}

// persistMeta writes campaign.json atomically (data.WriteFileAtomic) so a
// crash mid-transition leaves either the old or the new state, never a torn
// file. Callers hold c.mu.
func (c *Campaign) persistMeta() error {
	c.meta.UpdatedAt = time.Now().UTC()
	buf, err := json.MarshalIndent(&c.meta, "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return data.WriteFileAtomic(filepath.Join(c.dir, metaFile), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

func readMeta(dir string) (Meta, error) {
	var meta Meta
	buf, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(buf, &meta); err != nil {
		return meta, fmt.Errorf("campaign: %s: %w", metaFile, err)
	}
	if !meta.State.valid() {
		return meta, fmt.Errorf("campaign: %s: invalid state %q", metaFile, meta.State)
	}
	if meta.TruthModel == "" {
		// Pre-truth-model campaign.json: the only model that existed.
		meta.TruthModel = string(engine.Categorical)
	}
	return meta, nil
}
