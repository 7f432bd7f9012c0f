// Numericcampaign: run a NUMERIC truth-model campaign end-to-end over the
// v1 API. The campaign is created with "truth_model": "numeric", so the
// engine behind it is a numeric estimator (CRH here) instead of TDH:
// workers submit typed {"num": ...} payloads (any finite number — numeric
// truths live on the real line, not in a candidate set), /truths serves
// map[object]float64 estimates, and /stats reports MAE / relative error
// against the gold standard. Worker answers join the estimation as
// pseudo-sources, so an honest crowd pulls the estimate toward the truth
// even when a biased source pulls away from it. The finale restarts the
// manager to show the typed answers replaying from the durable event log.
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
	"sort"
	"sync"

	"repro/internal/campaign"
	"repro/internal/data"
	"repro/internal/synth"
)

func main() {
	dir, err := os.MkdirTemp("", "numericcampaign-*")
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

	// Seed dataset: one stock attribute — sources report each symbol's
	// value at different precisions and biases, gold is the true number.
	attr := synth.Stock(synth.StockConfig{Seed: 7, Symbols: 60, Sources: 12})[0]
	ds := &data.Dataset{Name: "stock-" + attr.Name, Truth: map[string]string{}}
	ds.Records = attr.Records
	for o, v := range attr.Gold {
		ds.Truth[o] = fmt.Sprintf("%g", v)
	}

	var wire bytes.Buffer
	if err := data.Write(&wire, ds); err != nil {
		fatal(err)
	}
	req := campaign.CreateRequest{
		Spec: campaign.Spec{
			ID:          "spot-price",
			Name:        "Stock " + attr.Name,
			TruthModel:  "numeric", // engine: CRH over sources + worker pseudo-sources
			Inferencer:  "CRH",
			Assigner:    "ME",
			OpenAnswers: true,
		},
		State:   campaign.StateLive,
		Dataset: wire.Bytes(),
	}
	body, _ := json.Marshal(&req)
	resp, err := http.Post(api.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		fatal(fmt.Errorf("create: %s: %s", resp.Status, msg))
	}
	resp.Body.Close()
	fmt.Printf("created numeric campaign over %d objects, %d source records\n",
		len(ds.Objects()), len(ds.Records))
	printStats(api.URL, "sources only")

	// A crowd of workers reads every symbol with small unbiased noise and
	// submits typed numeric payloads concurrently.
	objects := ds.Objects()
	sort.Strings(objects)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for _, o := range objects {
				reading := attr.Gold[o] * (1 + 0.01*rng.NormFloat64())
				body := fmt.Sprintf(`{"worker":"crowd-%02d","object":%q,"num":%g}`, w, o, reading)
				resp, err := http.Post(api.URL+"/v1/campaigns/spot-price/answer",
					"application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	post(api.URL + "/v1/campaigns/spot-price/refresh")
	printStats(api.URL, "after crowd answers")

	// /truths for a numeric campaign is map[object]float64.
	var est map[string]float64
	getJSON(api.URL+"/v1/campaigns/spot-price/truths", &est)
	o := objects[0]
	fmt.Printf("\nsample estimate: %s = %.4f (gold %.4f)\n", o, est[o], attr.Gold[o])

	// Restart: the typed numeric answers replay from the event log.
	if err := mgr.Close(); err != nil {
		fatal(err)
	}
	mgr2, err := campaign.Open(dir, campaign.Options{})
	if err != nil {
		fatal(err)
	}
	defer mgr2.Close()
	for _, c := range mgr2.Campaigns() {
		rec := c.Recovered()
		fmt.Printf("\nafter restart: campaign %s (%s) replayed %d numeric answers (skipped=%d, duplicates=%d)\n",
			c.ID(), c.Meta().TruthModel, rec.Answers, rec.Skipped, rec.Duplicates)
	}
}

func printStats(base, phase string) {
	var st struct {
		Answers int                `json:"answers"`
		Quality map[string]float64 `json:"quality"`
	}
	getJSON(base+"/v1/campaigns/spot-price/stats", &st)
	fmt.Printf("%-20s answers=%-4d MAE=%.4f relative-error=%.4f\n",
		phase+":", st.Answers, st.Quality["mae"], st.Quality["re"])
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		fatal(err)
	}
}

func post(url string) {
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "numericcampaign:", err)
	os.Exit(1)
}
