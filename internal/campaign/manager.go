package campaign

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/eventlog"
	"repro/internal/obs"
)

const (
	campaignsDir = "campaigns"
	metaFile     = "campaign.json"
	datasetFile  = "dataset.json"
	logFile      = "answers.jsonl"
)

// Sentinel errors, mapped to HTTP statuses by the v1 API (http.go).
var (
	ErrNotFound = errors.New("campaign: not found")
	ErrExists   = errors.New("campaign: already exists")
	ErrState    = errors.New("campaign: invalid lifecycle transition")
	ErrClosed   = errors.New("campaign: manager closed")
	// ErrConfig marks an invalid campaign configuration — an unknown truth
	// model, inferencer or assigner name — served as 422 with the valid
	// names in the message.
	ErrConfig = errors.New("campaign: invalid configuration")
)

var idPattern = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// Options configures a Manager.
type Options struct {
	// Logger receives the manager's structured diagnostics — campaign
	// lifecycle transitions, boot replay summaries — and, with a campaign
	// attribute attached, each campaign server's (admission rejections,
	// pipeline stalls, slow publishes) and event log's (commit failures,
	// slow fsyncs). Nil discards everything.
	Logger *slog.Logger
}

// logger returns the configured logger, never nil.
func (o Options) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// Spec is the per-campaign configuration fixed at creation time.
type Spec struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// TruthModel selects the campaign's truth-model engine: categorical
	// (default), numeric, or multi_truth. It fixes which inferencer and
	// assigner names are valid and the wire shapes of /truths and
	// /confidence.
	TruthModel  string     `json:"truth_model,omitempty"`
	Inferencer  string     `json:"inferencer,omitempty"`   // default: the model's first (TDH / CRH / LTM)
	Assigner    string     `json:"assigner,omitempty"`     // default: the model's first (EAI / ME)
	K           int        `json:"k,omitempty"`            // default 5
	Seed        int64      `json:"seed,omitempty"`         // assigner sampling seed
	OpenAnswers bool       `json:"open_answers,omitempty"` // accept unassigned answers
	Policy      PolicySpec `json:"policy,omitempty"`
}

// Manager is the campaign registry: it owns every campaign under one data
// directory, creates new ones, drives their lifecycle, and recovers all of
// them at boot. The registry lock is held only for map access — campaign
// boot, inference and shutdown run outside it.
type Manager struct {
	dir  string
	opts Options
	log  *slog.Logger // Options.Logger, normalized to never nil

	// metrics is the manager's own registry (campaign counts by state);
	// per-campaign instruments live on each campaign's registry and are
	// scraped together by handleMetrics.
	metrics *obs.Registry

	mu        sync.RWMutex
	campaigns map[string]*Campaign
	creating  map[string]bool // ids reserved by in-flight Creates
	closed    bool
}

// Open recovers every campaign found under dir (creating the layout if dir
// is new) and returns the manager. Live and paused campaigns reload their
// dataset, replay their answer log — acknowledged answers are paid for and
// must survive any crash — and restart inference; closed campaigns boot
// read-only so their results keep serving; drafts stay cold. A campaign
// that fails to recover fails the whole Open: silently dropping a paid-for
// campaign is worse than a loud boot error.
func Open(dir string, opts Options) (*Manager, error) {
	root := filepath.Join(dir, campaignsDir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	m := &Manager{dir: dir, opts: opts, log: opts.logger(), campaigns: map[string]*Campaign{}, creating: map[string]bool{}}
	m.metrics = newManagerMetrics(m)
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		cdir := filepath.Join(root, id)
		meta, err := readMeta(cdir)
		if errors.Is(err, os.ErrNotExist) {
			// A directory without campaign.json is a torn Create (the meta
			// write is the creation commit point): nothing in it was ever
			// acknowledged, so skip it rather than fail every healthy
			// campaign's boot. A later Create may reclaim the id.
			m.log.Warn("skipping torn campaign directory (no campaign.json)", "campaign", id)
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("campaign %s: %w", id, err)
		}
		if meta.ID != id {
			return nil, fmt.Errorf("campaign %s: %s claims id %q", id, metaFile, meta.ID)
		}
		c := &Campaign{dir: cdir, meta: meta}
		switch meta.State {
		case StateLive, StatePaused:
			if err := c.boot(opts, true); err != nil {
				return nil, err
			}
		case StateClosed:
			// Boot read-only and immediately stop the pipeline: the final
			// snapshot keeps serving reads, ingestion stays off.
			if err := c.boot(opts, false); err != nil {
				return nil, err
			}
			_ = c.srv.Close()
		}
		m.campaigns[id] = c
		if meta.State != StateDraft {
			rec := c.recovered
			m.log.Info("campaign recovered",
				"campaign", id, "state", string(meta.State),
				"replayed_answers", rec.Answers, "replayed_objects", rec.Objects,
				"replayed_records", rec.Records, "skipped_lines", rec.Skipped,
				"duplicates", rec.Duplicates)
		}
	}
	m.log.Info("campaign manager open", "dir", dir, "campaigns", len(m.campaigns))
	return m, nil
}

// Dir returns the manager's data directory.
func (m *Manager) Dir() string { return m.dir }

// Get returns a registered campaign.
func (m *Manager) Get(id string) (*Campaign, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, ok := m.campaigns[id]
	return c, ok
}

// Campaigns returns the registered campaigns sorted by id.
func (m *Manager) Campaigns() []*Campaign {
	m.mu.RLock()
	out := make([]*Campaign, 0, len(m.campaigns))
	for _, c := range m.campaigns {
		out = append(out, c)
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Create materializes a new draft campaign on disk — dataset, metadata —
// and registers it. The dataset (records + value hierarchy + optional
// gold) is fixed at creation; answers accumulate in the campaign's log.
func (m *Manager) Create(spec Spec, ds *data.Dataset) (*Campaign, error) {
	if !idPattern.MatchString(spec.ID) {
		return nil, fmt.Errorf("campaign: invalid id %q (want %s)", spec.ID, idPattern)
	}
	// Config names are validated here, at create time, against the declared
	// truth model's registry — an invalid combination is a 422 with the
	// valid names, not a deferred boot failure.
	tm, err := engine.ParseTruthModel(spec.TruthModel)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	spec.TruthModel = string(tm)
	if spec.Inferencer == "" {
		spec.Inferencer = engine.DefaultInferencer(tm)
	}
	if spec.Assigner == "" {
		spec.Assigner = engine.DefaultAssigner(tm)
	}
	if spec.K == 0 {
		spec.K = 5
	}
	if _, err := engine.New(tm, spec.Inferencer, engine.Config{}); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if _, err := engine.NewAssigner(tm, spec.Assigner); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if ds == nil {
		return nil, errors.New("campaign: nil dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}

	// Reserve the id, then do all disk I/O outside the registry lock: a
	// large dataset write must not stall /task and /answer for every other
	// campaign behind m.mu.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := m.campaigns[spec.ID]; ok || m.creating[spec.ID] {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, spec.ID)
	}
	m.creating[spec.ID] = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.creating, spec.ID)
		m.mu.Unlock()
	}()

	// campaign.json is the creation commit point: a directory carrying one
	// is a real campaign (ErrExists); one without is debris from a torn
	// Create and is safe to reclaim.
	cdir := filepath.Join(m.dir, campaignsDir, spec.ID)
	if _, err := os.Stat(filepath.Join(cdir, metaFile)); err == nil {
		return nil, fmt.Errorf("%w: %s (unregistered campaign on disk)", ErrExists, spec.ID)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if err := data.SaveFile(filepath.Join(cdir, datasetFile), ds); err != nil {
		_ = os.RemoveAll(cdir)
		return nil, fmt.Errorf("campaign %s: dataset: %w", spec.ID, err)
	}
	now := time.Now().UTC()
	c := &Campaign{
		dir: cdir,
		meta: Meta{
			ID:          spec.ID,
			Name:        spec.Name,
			State:       StateDraft,
			TruthModel:  spec.TruthModel,
			Inferencer:  spec.Inferencer,
			Assigner:    spec.Assigner,
			K:           spec.K,
			Seed:        spec.Seed,
			OpenAnswers: spec.OpenAnswers,
			Policy:      spec.Policy,
			CreatedAt:   now,
		},
	}
	if err := c.persistMeta(); err != nil {
		_ = os.RemoveAll(cdir)
		return nil, fmt.Errorf("campaign %s: %w", spec.ID, err)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		// The campaign is durable on disk; the next Open registers it.
		return nil, ErrClosed
	}
	m.campaigns[spec.ID] = c
	m.mu.Unlock()
	m.log.Info("campaign created",
		"campaign", spec.ID, "state", string(StateDraft),
		"truth_model", spec.TruthModel, "inferencer", spec.Inferencer,
		"assigner", spec.Assigner)
	return c, nil
}

// Start boots a draft campaign and takes it live. If the new state cannot
// be persisted, the boot is rolled back — memory and disk always agree.
func (m *Manager) Start(id string) error {
	return m.withCampaign(id, func(c *Campaign) error {
		if c.meta.State != StateDraft {
			return fmt.Errorf("%w: cannot start a %s campaign", ErrState, c.meta.State)
		}
		if err := c.boot(m.opts, true); err != nil {
			return err
		}
		prev := c.meta
		c.meta.State = StateLive
		if err := c.persistMeta(); err != nil {
			_ = c.stop()
			c.srv, c.handler = nil, nil
			c.recovered = eventlog.ReplayResult{}
			c.meta = prev
			return err
		}
		m.log.Info("campaign lifecycle transition",
			"campaign", id, "from", string(StateDraft), "to", string(StateLive))
		return nil
	})
}

// Pause halts task hand-out and answer ingestion for a live campaign;
// reads keep serving and all state is retained.
func (m *Manager) Pause(id string) error {
	return m.flipState(id, StateLive, StatePaused, "pause")
}

// Resume takes a paused campaign back live.
func (m *Manager) Resume(id string) error {
	return m.flipState(id, StatePaused, StateLive, "resume")
}

// flipState persists a pure state change (no resource action); on persist
// failure the in-memory state is untouched.
func (m *Manager) flipState(id string, from, to State, verb string) error {
	return m.withCampaign(id, func(c *Campaign) error {
		if c.meta.State != from {
			return fmt.Errorf("%w: cannot %s a %s campaign", ErrState, verb, c.meta.State)
		}
		prev := c.meta
		c.meta.State = to
		if err := c.persistMeta(); err != nil {
			c.meta = prev
			return err
		}
		m.log.Info("campaign lifecycle transition",
			"campaign", id, "from", string(from), "to", string(to))
		return nil
	})
}

// CloseCampaign ends a live or paused campaign: the terminal state is made
// durable first, then the pipeline drains every acknowledged answer into a
// final snapshot and the log is closed. Reads keep serving the final
// results. If persisting fails, nothing happens; once the state is on
// disk, even a crash mid-teardown reopens the campaign as closed.
func (m *Manager) CloseCampaign(id string) error {
	return m.withCampaign(id, func(c *Campaign) error {
		if c.meta.State != StateLive && c.meta.State != StatePaused {
			return fmt.Errorf("%w: cannot close a %s campaign", ErrState, c.meta.State)
		}
		prev := c.meta
		c.meta.State = StateClosed
		if err := c.persistMeta(); err != nil {
			c.meta = prev
			return err
		}
		err := c.stop()
		m.log.Info("campaign lifecycle transition",
			"campaign", id, "from", string(prev.State), "to", string(StateClosed))
		return err
	})
}

// Delete removes a campaign from the registry and from disk. Only closed
// and draft campaigns can be deleted (ErrState otherwise): deleting a live
// or paused campaign would destroy paid-for answer history behind a single
// call, so it must be an explicit two-step act — close, then delete — while
// a draft has no history to protect and no resources to stop. The metadata
// file goes first: campaign.json is the existence commit point (exactly as
// in Create), so a crash mid-delete leaves a directory without it, which
// boot-time recovery already skips as debris and a later Create may
// reclaim.
func (m *Manager) Delete(id string) error {
	err := m.withCampaign(id, func(c *Campaign) error {
		if c.meta.State != StateClosed && c.meta.State != StateDraft {
			return fmt.Errorf("%w: cannot delete a %s campaign (close it first)", ErrState, c.meta.State)
		}
		if err := os.Remove(filepath.Join(c.dir, metaFile)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("campaign %s: %w", id, err)
		}
		if err := os.RemoveAll(c.dir); err != nil {
			// The campaign is already deleted in the only sense that matters
			// (no campaign.json); leftover files are debris recovery skips.
			return fmt.Errorf("campaign %s: removing directory: %w", id, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.mu.Lock()
	delete(m.campaigns, id)
	m.mu.Unlock()
	m.log.Info("campaign deleted", "campaign", id)
	return nil
}

// withCampaign locates the campaign and runs fn under its lock. The
// registry lock is not held across fn: a booting campaign (initial
// inference over its dataset) must not block requests to every other
// campaign. Manager closure is re-checked once the campaign lock is held,
// so no transition can boot resources behind a concurrent Manager.Close —
// and if Close wins the race instead, its per-campaign shutdown blocks on
// c.mu until fn is done and then tears down whatever fn set up.
func (m *Manager) withCampaign(id string, fn func(*Campaign) error) error {
	m.mu.RLock()
	closed := m.closed
	c, ok := m.campaigns[id]
	m.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m.mu.RLock()
	closed = m.closed
	m.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	return fn(c)
}

// Close shuts every campaign down concurrently: each pipeline drains its
// acknowledged answers into a final snapshot and each log handle is
// closed. Persisted lifecycle states are untouched, so a subsequent Open
// resumes live campaigns live. Close is idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	list := make([]*Campaign, 0, len(m.campaigns))
	for _, c := range m.campaigns {
		list = append(list, c)
	}
	m.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range list {
		wg.Add(1)
		go func(c *Campaign) {
			defer wg.Done()
			// Persisted state is untouched, so a restart resumes the
			// campaign where it stopped.
			c.mu.Lock()
			_ = c.stop()
			c.mu.Unlock()
		}(c)
	}
	wg.Wait()
	return nil
}
