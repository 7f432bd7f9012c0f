// Openworld: a live campaign whose dataset grows while workers answer —
// the open-world mode of the crowdsourcing system. The campaign starts
// with 3 objects; a feeder streams POST /objects (declared objects with
// seeded candidates) and POST /records (new source claims) until the
// corpus reaches 30 objects, while a simulated crowd concurrently pulls
// tasks and answers. Every acknowledged event — answer, object add, record
// add — is group-committed to the campaign's typed event log before the
// 200, so when the process is killed mid-flight (simulated below by
// abandoning the manager without a graceful close) the reopened campaign
// replays the log and resumes with zero acknowledged loss.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"

	"repro/internal/campaign"
	"repro/internal/data"
	"repro/internal/hierarchy"
)

const (
	campaignID   = "openworld"
	seedObjects  = 3
	finalObjects = 30
	nWorkers     = 8
)

func main() {
	dir, err := os.MkdirTemp("", "openworld-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	mgr, err := campaign.Open(dir, campaign.Options{})
	if err != nil {
		fatal(err)
	}
	api := httptest.NewServer(mgr.Handler())

	// Create the campaign live with only the first 3 objects known.
	ds := seedDataset()
	createCampaign(api.URL, ds)
	fmt.Printf("campaign %s: live with %d objects\n", campaignID, seedObjects)

	// Feeder and crowd run concurrently: the corpus grows 3 -> 30 under
	// answer traffic. Each grown object is declared with seeded candidates
	// first, then claimed by a live source record.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := seedObjects; i < finalObjects; i++ {
			o := fmt.Sprintf("city-%02d", i)
			postJSON(api.URL+"/v1/campaigns/"+campaignID+"/objects", map[string]any{
				"object":     o,
				"candidates": []string{"NY", "LA", "London", "USA"},
			})
			postJSON(api.URL+"/v1/campaigns/"+campaignID+"/records",
				data.Record{Object: o, Source: "live-wire", Value: "NY"})
		}
	}()
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(api.URL, w)
		}(w)
	}
	wg.Wait()

	postJSON(api.URL+"/v1/campaigns/"+campaignID+"/refresh", nil)
	truths := getTruths(api.URL)
	fmt.Printf("before crash: %d objects with inferred truths\n", len(truths))

	// Kill -9: abandon the manager without Close. Acknowledged events are
	// already fsync'd in the event log; nothing else matters.
	api.Close()

	mgr2, err := campaign.Open(dir, campaign.Options{})
	if err != nil {
		fatal(err)
	}
	defer mgr2.Close()
	api2 := httptest.NewServer(mgr2.Handler())
	defer api2.Close()

	c, ok := mgr2.Get(campaignID)
	if !ok {
		fatal(fmt.Errorf("campaign lost after crash"))
	}
	rec := c.Recovered()
	fmt.Printf("after restart: replayed %d answers, %d objects, %d records (%d skipped, %d duplicates)\n",
		rec.Answers, rec.Objects, rec.Records, rec.Skipped, rec.Duplicates)
	if rec.Objects != finalObjects-seedObjects {
		fatal(fmt.Errorf("expected %d replayed objects, got %d", finalObjects-seedObjects, rec.Objects))
	}

	truths = getTruths(api2.URL)
	if len(truths) != finalObjects {
		fatal(fmt.Errorf("restarted campaign covers %d objects, want %d", len(truths), finalObjects))
	}
	fmt.Printf("after restart: %d objects with inferred truths — zero acknowledged loss\n", len(truths))
	fmt.Printf("city-%02d -> %s\n", finalObjects-1, truths[fmt.Sprintf("city-%02d", finalObjects-1)])
}

// seedDataset builds the 3-object seed: two sources disagree about each
// city's place, under a small place hierarchy that live additions must
// stay within.
func seedDataset() *data.Dataset {
	h := hierarchy.New(hierarchy.Root)
	h.MustAdd("USA", hierarchy.Root)
	h.MustAdd("UK", hierarchy.Root)
	h.MustAdd("NY", "USA")
	h.MustAdd("LA", "USA")
	h.MustAdd("London", "UK")
	h.Freeze()
	ds := &data.Dataset{Name: "openworld", Truth: map[string]string{}, H: h}
	for i := 0; i < seedObjects; i++ {
		o := fmt.Sprintf("city-%02d", i)
		ds.Records = append(ds.Records,
			data.Record{Object: o, Source: "atlas", Value: "NY"},
			data.Record{Object: o, Source: "gazette", Value: "USA"},
		)
	}
	return ds
}

func createCampaign(base string, ds *data.Dataset) {
	var wire bytes.Buffer
	if err := data.Write(&wire, ds); err != nil {
		fatal(err)
	}
	body, _ := json.Marshal(map[string]any{
		"id": campaignID, "state": "live", "k": 3, "seed": 7,
		"open_answers": true, "dataset": json.RawMessage(wire.Bytes()),
	})
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		fatal(fmt.Errorf("create: %d: %s", resp.StatusCode, msg))
	}
}

// runWorker pulls assigned tasks and answers them, NY-biased, until it has
// seen a few empty rounds (the assigner hands out nothing new).
func runWorker(base string, w int) {
	rng := rand.New(rand.NewSource(int64(100 + w)))
	worker := fmt.Sprintf("worker-%02d", w)
	for round := 0; round < 20; round++ {
		resp, err := http.Get(base + "/v1/campaigns/" + campaignID + "/task?worker=" + worker)
		if err != nil {
			return // server torn down
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
			return
		}
		for _, task := range tl.Tasks {
			value := task.Candidates[rng.Intn(len(task.Candidates))]
			if rng.Float64() < 0.8 {
				value = "NY" // mostly truthful crowd
			}
			postJSON(base+"/v1/campaigns/"+campaignID+"/answer",
				data.Answer{Object: task.Object, Worker: worker, Value: value})
		}
	}
}

func postJSON(url string, payload any) {
	var body io.Reader
	if payload != nil {
		buf, _ := json.Marshal(payload)
		body = bytes.NewReader(buf)
	}
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func getTruths(base string) map[string]string {
	resp, err := http.Get(base + "/v1/campaigns/" + campaignID + "/truths")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	var truths map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&truths); err != nil {
		fatal(err)
	}
	return truths
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "openworld:", err)
	os.Exit(1)
}
