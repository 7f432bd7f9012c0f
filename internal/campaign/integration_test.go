package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/data"
)

// TestMultiCampaignEndToEnd is the acceptance test: one manager process
// serves two concurrent campaigns end-to-end over the v1 API — created by
// POST /v1/campaigns, workers pulling and answering per campaign in
// parallel (run under -race) — then the process dies kill-9 style (no
// graceful Close) and a restart must recover both campaigns with zero
// acknowledged answers lost. While the workers load the API, nothing the
// manager, its campaign servers or their event logs say may be at ERROR
// level.
func TestMultiCampaignEndToEnd(t *testing.T) {
	dir := t.TempDir()
	logs := &levelRecorder{}
	m, err := Open(dir, Options{Logger: slog.New(logs)})
	if err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(m.Handler())
	defer api.Close()
	client := api.Client()

	ids := []string{"east", "west"}
	for _, id := range ids {
		body := createBody(t, Spec{ID: id, K: 4, Seed: 11}, StateLive, testDataset(id, 40))
		resp, err := client.Post(api.URL+"/v1/campaigns", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d: %s", id, resp.StatusCode, msg)
		}
	}

	// Per campaign: 6 workers, each pulling assigned tasks and answering
	// every one of them for 3 rounds, all campaigns and workers concurrent.
	type ack struct{ worker, object string }
	acked := map[string]map[ack]bool{}
	var ackedMu sync.Mutex
	for _, id := range ids {
		acked[id] = map[ack]bool{}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(ids)*6)
	for _, id := range ids {
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(id string, w int) {
				defer wg.Done()
				worker := fmt.Sprintf("w%02d", w)
				for round := 0; round < 3; round++ {
					resp, err := client.Get(fmt.Sprintf("%s/v1/campaigns/%s/task?worker=%s", api.URL, id, worker))
					if err != nil {
						errCh <- err
						return
					}
					var tl struct {
						Tasks []struct {
							Object     string   `json:"object"`
							Candidates []string `json:"candidates"`
						} `json:"tasks"`
					}
					err = json.NewDecoder(resp.Body).Decode(&tl)
					resp.Body.Close()
					if err != nil {
						errCh <- err
						return
					}
					for _, task := range tl.Tasks {
						body, _ := json.Marshal(data.Answer{Object: task.Object, Worker: worker, Value: task.Candidates[0]})
						resp, err := client.Post(fmt.Sprintf("%s/v1/campaigns/%s/answer", api.URL, id),
							"application/json", bytes.NewReader(body))
						if err != nil {
							errCh <- err
							return
						}
						msg, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							errCh <- fmt.Errorf("%s/%s answer %s: %d: %s", id, worker, task.Object, resp.StatusCode, msg)
							return
						}
						// Acknowledged with 200: this answer is durable and
						// must survive the crash below.
						ackedMu.Lock()
						acked[id][ack{worker, task.Object}] = true
						ackedMu.Unlock()
					}
				}
			}(id, w)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for _, id := range ids {
		if len(acked[id]) == 0 {
			t.Fatalf("campaign %s: no answers acknowledged", id)
		}
	}
	if errs := logs.errors(); len(errs) > 0 {
		t.Fatalf("logged at ERROR level under load: %v", errs)
	}
	if logs.count() == 0 {
		t.Fatal("no log record reached the recorder: the manager's Logger is not wired")
	}

	// Kill -9: the manager is abandoned mid-flight with no Close — queued
	// inference state and open file handles die with the "process".
	api.Close()

	m2 := mustOpen(t, dir)
	defer m2.Close()
	for _, id := range ids {
		c, ok := m2.Get(id)
		if !ok {
			t.Fatalf("campaign %s not rediscovered after crash", id)
		}
		rec := c.Recovered()
		if rec.Answers != len(acked[id]) || rec.Duplicates != 0 {
			t.Fatalf("campaign %s: recovered %+v, want every one of the %d acknowledged answers",
				id, rec, len(acked[id]))
		}
		// Spot-check through the API of the restarted process: stats serve
		// and resubmitting a recovered answer is a duplicate.
		h := m2.Handler()
		if rec := doReq(t, h, "GET", "/v1/campaigns/"+id+"/stats", ""); rec.Code != 200 {
			t.Fatalf("%s stats after restart: %d", id, rec.Code)
		}
		for a := range acked[id] {
			body := fmt.Sprintf(`{"worker":%q,"object":%q,"value":"NY"}`, a.worker, a.object)
			if rec := doReq(t, h, "POST", "/v1/campaigns/"+id+"/answer", body); rec.Code != 409 {
				t.Fatalf("%s resubmitted recovered answer: %d, want 409", id, rec.Code)
			}
			break
		}
	}
}

// levelRecorder is a slog.Handler that counts the records it receives and
// keeps the messages of those at ERROR level or above.
type levelRecorder struct {
	mu   sync.Mutex
	n    int
	errs []string
}

func (r *levelRecorder) Enabled(context.Context, slog.Level) bool { return true }

func (r *levelRecorder) Handle(_ context.Context, rec slog.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
	if rec.Level >= slog.LevelError {
		r.errs = append(r.errs, rec.Message)
	}
	return nil
}

// WithAttrs and WithGroup share the one recorder: the campaign attribute
// each campaign's logger carries does not matter here.
func (r *levelRecorder) WithAttrs([]slog.Attr) slog.Handler { return r }
func (r *levelRecorder) WithGroup(string) slog.Handler      { return r }

func (r *levelRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func (r *levelRecorder) errors() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.errs...)
}
