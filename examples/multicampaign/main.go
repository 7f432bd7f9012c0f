// Multicampaign: host two concurrent truth-discovery campaigns in one
// process through the v1 API — the multi-tenant successor of the paper's
// single-campaign crowdsourcing system (Section 5.5). The program creates
// a BirthPlaces and a Heritages campaign over HTTP, drives simulated
// worker crowds against both in parallel, pauses one mid-flight (showing
// the 409 lifecycle gate while reads keep serving), then shuts the whole
// manager down and reopens it to demonstrate per-campaign crash recovery
// from the durable answer logs.
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
	"slices"
	"sync"

	"repro/internal/campaign"
	"repro/internal/data"
	"repro/internal/synth"
)

func main() {
	dir, err := os.MkdirTemp("", "multicampaign-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	mgr, err := campaign.Open(dir, campaign.Options{})
	if err != nil {
		fatal(err)
	}
	api := httptest.NewServer(mgr.Handler())
	defer api.Close()

	// Two campaigns, two workloads, one process.
	births := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: 0.1})
	herits := synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: 0.1})
	createCampaign(api.URL, "birthplaces", births)
	createCampaign(api.URL, "heritages", herits)

	// Simulated crowds answer both campaigns concurrently: each worker
	// pulls assigned tasks and answers correctly with probability 0.8.
	var wg sync.WaitGroup
	for _, c := range []struct {
		id string
		ds *data.Dataset
	}{{"birthplaces", births}, {"heritages", herits}} {
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(id string, ds *data.Dataset, w int) {
				defer wg.Done()
				runWorker(api.URL, id, ds, w)
			}(c.id, c.ds, w)
		}
	}
	wg.Wait()

	// Lifecycle: pause one campaign — ingestion 409s, reads keep serving.
	post(api.URL + "/v1/campaigns/birthplaces/pause")
	fmt.Printf("paused birthplaces: GET /task -> %d\n", getStatus(api.URL+"/v1/campaigns/birthplaces/task?worker=late"))
	fmt.Printf("paused birthplaces: GET /stats -> %d\n", getStatus(api.URL+"/v1/campaigns/birthplaces/stats"))
	post(api.URL + "/v1/campaigns/birthplaces/resume")

	for _, c := range mgr.Campaigns() {
		st := c.Server().Stats()
		fmt.Printf("campaign %-12s state=%-6s answers=%-4d accuracy=%.4f\n",
			c.ID(), c.State(), st.Answers, st.Accuracy)
	}

	// Crash recovery: shut everything down, reopen the same directory, and
	// every campaign comes back with its paid-for answers replayed.
	if err := mgr.Close(); err != nil {
		fatal(err)
	}
	mgr2, err := campaign.Open(dir, campaign.Options{})
	if err != nil {
		fatal(err)
	}
	defer mgr2.Close()
	fmt.Println("\nafter restart:")
	for _, c := range mgr2.Campaigns() {
		rec := c.Recovered()
		fmt.Printf("campaign %-12s state=%-6s replayed=%d answers (skipped=%d, duplicates=%d)\n",
			c.ID(), c.State(), rec.Answers, rec.Skipped, rec.Duplicates)
	}
}

// createCampaign uploads ds as a live campaign via POST /v1/campaigns.
func createCampaign(base, id string, ds *data.Dataset) {
	var wire bytes.Buffer
	if err := data.Write(&wire, ds); err != nil {
		fatal(err)
	}
	req := campaign.CreateRequest{
		Spec:    campaign.Spec{ID: id, Name: ds.Name, K: 3, Seed: 7},
		State:   campaign.StateLive,
		Dataset: wire.Bytes(),
	}
	body, err := json.Marshal(&req)
	if err != nil {
		fatal(err)
	}
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		fatal(fmt.Errorf("create %s: %s: %s", id, resp.Status, msg))
	}
	fmt.Printf("created campaign %s (%d records, %d objects)\n", id, len(ds.Records), len(ds.Objects()))
}

// runWorker pulls one round of assigned tasks for worker w and answers
// each: the gold value with probability 0.8, otherwise a random candidate.
func runWorker(base, id string, ds *data.Dataset, w int) {
	worker := fmt.Sprintf("%s-worker-%02d", id, w)
	rng := rand.New(rand.NewSource(int64(1000 + w)))
	var tasks struct {
		Tasks []struct {
			Object     string   `json:"object"`
			Candidates []string `json:"candidates"`
		} `json:"tasks"`
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/campaigns/%s/task?worker=%s", base, id, worker))
	if err != nil {
		fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&tasks)
	resp.Body.Close()
	if err != nil {
		fatal(err)
	}
	for _, t := range tasks.Tasks {
		value := ds.Truth[t.Object]
		if !slices.Contains(t.Candidates, value) || rng.Float64() > 0.8 {
			value = t.Candidates[rng.Intn(len(t.Candidates))]
		}
		body, _ := json.Marshal(data.Answer{Object: t.Object, Worker: worker, Value: value})
		resp, err := http.Post(fmt.Sprintf("%s/v1/campaigns/%s/answer", base, id),
			"application/json", bytes.NewReader(body))
		if err != nil {
			fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func getStatus(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func post(url string) {
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("POST %s -> %s", url, resp.Status))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "multicampaign:", err)
	os.Exit(1)
}
