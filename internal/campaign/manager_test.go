package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/hierarchy"
)

// testDataset builds a small deterministic campaign dataset: three sources
// of differing quality claim a place for every object.
func testDataset(name string, objects int) *data.Dataset {
	h := hierarchy.New(hierarchy.Root)
	h.MustAdd("USA", hierarchy.Root)
	h.MustAdd("UK", hierarchy.Root)
	h.MustAdd("NY", "USA")
	h.MustAdd("LA", "USA")
	h.MustAdd("London", "UK")
	h.Freeze()
	ds := &data.Dataset{Name: name, Truth: map[string]string{}, H: h}
	for i := 0; i < objects; i++ {
		o := fmt.Sprintf("%s-o%02d", name, i)
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "s1", Value: "NY"},
			data.Record{Object: o, Source: "s2", Value: "USA"},
			data.Record{Object: o, Source: "s3", Value: "LA"},
		)
		ds.Truth[o] = "NY"
	}
	return ds
}

func mustOpen(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLifecycleStateMachine(t *testing.T) {
	m := mustOpen(t, t.TempDir())
	defer m.Close()
	c, err := m.Create(Spec{ID: "sm"}, testDataset("sm", 4))
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != StateDraft {
		t.Fatalf("new campaign state = %s", c.State())
	}
	if c.Server() != nil {
		t.Fatal("draft campaign must not have a server")
	}
	// Only start is valid from draft.
	for _, op := range []func(string) error{m.Pause, m.Resume, m.CloseCampaign} {
		if err := op("sm"); !errors.Is(err, ErrState) {
			t.Fatalf("transition from draft: err = %v, want ErrState", err)
		}
	}
	if err := m.Start("sm"); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateLive || c.Server() == nil {
		t.Fatalf("after start: state = %s, server = %v", c.State(), c.Server())
	}
	if err := m.Start("sm"); !errors.Is(err, ErrState) {
		t.Fatalf("double start: err = %v, want ErrState", err)
	}
	if err := m.Resume("sm"); !errors.Is(err, ErrState) {
		t.Fatalf("resume live: err = %v, want ErrState", err)
	}
	if err := m.Pause("sm"); err != nil {
		t.Fatal(err)
	}
	if err := m.Pause("sm"); !errors.Is(err, ErrState) {
		t.Fatalf("double pause: err = %v, want ErrState", err)
	}
	if err := m.Resume("sm"); err != nil {
		t.Fatal(err)
	}
	if err := m.CloseCampaign("sm"); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateClosed {
		t.Fatalf("after close: state = %s", c.State())
	}
	// Closed is terminal.
	for _, op := range []func(string) error{m.Start, m.Pause, m.Resume, m.CloseCampaign} {
		if err := op("sm"); !errors.Is(err, ErrState) {
			t.Fatalf("transition from closed: err = %v, want ErrState", err)
		}
	}
	if err := m.Pause("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: err = %v, want ErrNotFound", err)
	}
}

func TestCreateValidation(t *testing.T) {
	m := mustOpen(t, t.TempDir())
	defer m.Close()
	ds := testDataset("v", 2)
	for _, id := range []string{"", "UPPER", "has space", "-lead", "../escape"} {
		if _, err := m.Create(Spec{ID: id}, ds); err == nil {
			t.Fatalf("id %q must be rejected", id)
		}
	}
	if _, err := m.Create(Spec{ID: "v", Inferencer: "NOPE"}, ds); err == nil {
		t.Fatal("unknown inferencer must be rejected")
	}
	if _, err := m.Create(Spec{ID: "v", Assigner: "NOPE"}, ds); err == nil {
		t.Fatal("unknown assigner must be rejected")
	}
	if _, err := m.Create(Spec{ID: "v"}, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(Spec{ID: "v"}, ds); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate id: err = %v, want ErrExists", err)
	}
}

// TestCrashRecoveryRoundTrip is the satellite round-trip: two campaigns
// ingest answers, the process "crashes" (the manager is abandoned without
// Close, so nothing is flushed gracefully), the final write of one log is
// torn, and a fresh manager over the same directory must replay every
// acknowledged answer per campaign — the torn tail skipped, not fatal.
func TestCrashRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir)
	for _, id := range []string{"alpha", "beta"} {
		if _, err := m.Create(Spec{ID: id, OpenAnswers: true}, testDataset(id, 8)); err != nil {
			t.Fatal(err)
		}
		if err := m.Start(id); err != nil {
			t.Fatal(err)
		}
	}
	// Ingest a different number of answers per campaign, straight through
	// the coordinator (OpenAnswers: no task hand-out needed).
	ingest := map[string]int{"alpha": 5, "beta": 3}
	for id, n := range ingest {
		c, _ := m.Get(id)
		h := c.Server().Handler()
		for i := 0; i < n; i++ {
			body := fmt.Sprintf(`{"worker":"w%d","object":"%s-o%02d","value":"NY"}`, i, id, i)
			rec := doReq(t, h, "POST", "/answer", body)
			if rec.Code != 200 {
				t.Fatalf("%s answer %d: %d: %s", id, i, rec.Code, rec.Body.String())
			}
		}
	}
	// Tear the final write of alpha's log: a crash mid-append leaves a
	// partial line that must not cost any acknowledged answer.
	logPath := filepath.Join(dir, campaignsDir, "alpha", logFile)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"worker":"w9","object":"al`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Crash: no m.Close(). Restart over the same directory.
	m2 := mustOpen(t, dir)
	defer m2.Close()
	for id, n := range ingest {
		c, ok := m2.Get(id)
		if !ok {
			t.Fatalf("campaign %s not rediscovered", id)
		}
		if c.State() != StateLive {
			t.Fatalf("campaign %s state = %s, want live", id, c.State())
		}
		rec := c.Recovered()
		wantSkipped := 0
		if id == "alpha" {
			wantSkipped = 1
		}
		if rec.Answers != n || rec.Skipped != wantSkipped || rec.Duplicates != 0 {
			t.Fatalf("campaign %s recovered %+v, want %d answers, %d skipped", id, rec, n, wantSkipped)
		}
		// The replayed answers are in the serving dataset: the coordinator
		// rejects their resubmission as duplicates.
		h := c.Server().Handler()
		body := fmt.Sprintf(`{"worker":"w0","object":"%s-o00","value":"NY"}`, id)
		if rec := doReq(t, h, "POST", "/answer", body); rec.Code != 409 {
			t.Fatalf("%s replayed answer resubmission: %d, want 409", id, rec.Code)
		}
	}
}

// TestTornCreateIsSkippedAndReclaimable: campaign.json is the creation
// commit point. A directory without one (crash between mkdir/dataset write
// and the meta write) must neither fail the boot of every healthy campaign
// nor poison its id forever.
func TestTornCreateIsSkippedAndReclaimable(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir)
	if _, err := m.Create(Spec{ID: "healthy"}, testDataset("healthy", 3)); err != nil {
		t.Fatal(err)
	}
	m.Close()
	// Simulate a torn create: directory + dataset, no campaign.json.
	torn := filepath.Join(dir, campaignsDir, "torn")
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(torn, datasetFile), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := mustOpen(t, dir)
	defer m2.Close()
	if _, ok := m2.Get("torn"); ok {
		t.Fatal("torn create must not be registered")
	}
	if _, ok := m2.Get("healthy"); !ok {
		t.Fatal("healthy campaign must survive a sibling's torn create")
	}
	// The id is reclaimable.
	if _, err := m2.Create(Spec{ID: "torn"}, testDataset("torn", 3)); err != nil {
		t.Fatalf("reclaiming a torn id: %v", err)
	}
	if err := m2.Start("torn"); err != nil {
		t.Fatal(err)
	}
}

// TestManagerCloseResumesLive: a graceful shutdown must not demote
// campaign states — live campaigns reopen live.
func TestManagerCloseResumesLive(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir)
	if _, err := m.Create(Spec{ID: "keep"}, testDataset("keep", 3)); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("keep"); err != nil {
		t.Fatal(err)
	}
	if err := m.Pause("keep"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	m2 := mustOpen(t, dir)
	defer m2.Close()
	c, ok := m2.Get("keep")
	if !ok || c.State() != StatePaused {
		t.Fatalf("campaign reopened as %v, want paused", c.State())
	}
	// And a closed campaign reopens closed, still serving reads.
	if err := m2.Resume("keep"); err != nil {
		t.Fatal(err)
	}
	if err := m2.CloseCampaign("keep"); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	m3 := mustOpen(t, dir)
	defer m3.Close()
	c, _ = m3.Get("keep")
	if c.State() != StateClosed {
		t.Fatalf("closed campaign reopened as %s", c.State())
	}
	if c.Server() == nil {
		t.Fatal("closed campaign must still serve reads")
	}
	if truths := c.Server().Truths(); len(truths) != 3 {
		t.Fatalf("closed campaign truths = %d, want 3", len(truths))
	}
}
