package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The catalogue must stay inside the limits the acceptance driver puts on
// BENCHMARK.json.
func TestCatalogueWithinLimits(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not a valid benchmark name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			name(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is not valid", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
				hasSetup = true
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, d := range endToEnd {
		if d.Floor <= 0 || d.Floor > maxBound {
			t.Errorf("%s: floor %v", d.Name, d.Floor)
		}
	}
}

// BENCHMARK.json at the repository root and the catalogue in this package
// describe the same benchmark; only the bounds live in the file alone.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, m := range file.EndToEnd {
		bounds[m.Name] = m.Bound
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("%s: bound %v is outside (0, %v]", m.Name, m.Bound, maxBound)
		}
	}
	if want := benchmarkSpec(bounds, file.RunSeconds); !reflect.DeepEqual(file, want) {
		got, _ := json.Marshal(file)
		exp, _ := json.Marshal(want)
		t.Errorf("BENCHMARK.json and the catalogue disagree (run -calibrate to rewrite the file):\nfile      %s\ncatalogue %s", got, exp)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, above 64 KiB", len(raw))
	}
}
