package main

import (
	"encoding/json"
	"testing"
)

// TestSmoke runs every workload traced at scale 0.05 for 1 s: every
// correctness check, the scrape, the layer replay and the probes all run,
// and the result line carries exactly the catalogue's metrics.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			res, err := runOnce(params{workload: w, seed: 11, seconds: 1, scale: 0.05}, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			// A traced run measures both sets of metrics; render it both ways.
			for _, traced := range []bool{true, false} {
				res.Traced = traced
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("check %q failed: %s", c.Name, c.Detail)
					}
				}
				if len(res.Checks) < 3 || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("%d checks, %d attempted, %d failed", len(res.Checks), res.Attempted, res.Failed)
				}
				for _, d := range endToEnd {
					if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
						t.Errorf("end-to-end metric %s = %v (measured: %v); every one must be reported and never 0", d.Name, v, ok)
					}
				}
				line, err := resultLine(res)
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Correct   *bool                 `json:"correct"`
					Attempted *int                  `json:"attempted"`
					Failed    *int                  `json:"failed"`
					Metrics   map[string]wireMetric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &parsed); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
					if len(res.spans) == 0 {
						t.Error("a traced run recorded no span")
					}
				}
				if parsed.Correct == nil || !*parsed.Correct || parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(want) {
					t.Errorf("result line %s", line)
				}
				for _, d := range want {
					if m, ok := parsed.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("result line lacks %s in %s", d.Name, d.Unit)
					}
				}
			}
		})
	}
}
