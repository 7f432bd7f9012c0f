package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runChild runs one workload once in a fresh process — this same binary —
// and reads the full result it writes with -out. The child's own report is
// shown only when the run fails; a traced child's budgets are passed on.
func runChild(work, workload string, seed int64, seconds float64, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceFlag := "0"
	if traced {
		traceFlag = "1"
	}
	outPath := filepath.Join(work, fmt.Sprintf("result-%d.json", os.Getpid()))
	defer os.Remove(outPath)
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceFlag, "-out", outPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: run failed (%v)\n%s", workload, seed, err, stderr.String())
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	if traced {
		if i := strings.Index(stderr.String(), "budget:"); i >= 0 {
			fmt.Fprint(os.Stderr, stderr.String()[i:])
		}
	}
	return res, nil
}

// column collects one metric's values over several runs.
func column(results []*runResult, name string) []float64 {
	out := make([]float64, 0, len(results))
	for _, r := range results {
		out = append(out, r.Metrics[name])
	}
	return out
}

// runMany is the one command for people: per workload, runs untraced runs
// with the same seed (each a fresh process), reported as the median with its
// quartiles and sample count, plus one traced run when asked.
func runMany(work string, names []string, seed int64, seconds float64, runs int, traced bool) error {
	printEnvironment(os.Stderr)
	for _, w := range names {
		var results []*runResult
		for i := 0; i < runs; i++ {
			r, err := runChild(work, w, seed, seconds, false)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
		fmt.Printf("%s: %d untraced runs, seed %d, %g s\n", w, runs, seed, seconds)
		for _, d := range endToEnd {
			vals := column(results, d.Name)
			q1, q2, q3 := quartiles(vals)
			fmt.Printf("  %-22s %12.4f %-6s  quartiles [%.4f, %.4f]  n=%d\n", d.Name, q2, d.Unit, q1, q3, len(vals))
		}
		// The offline loop is deterministic: same seed, same final accuracy,
		// bit for bit. (The serving workloads are not: which tasks a worker
		// gets depends on which snapshot its request happened to see.)
		if w == "crowd_batch" {
			for _, acc := range column(results, "accuracy") {
				if acc != results[0].Metrics["accuracy"] {
					return fmt.Errorf("crowd_batch: final accuracy differs between same-seed runs: %v", column(results, "accuracy"))
				}
			}
		}
		if !traced {
			continue
		}
		r, err := runChild(work, w, seed, seconds, true)
		if err != nil {
			return err
		}
		fmt.Printf("%s: traced run\n", w)
		for _, d := range perLayer {
			fmt.Printf("  %-38s %14.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
		}
		// The run-difference form of the tracing overhead: the traced run
		// against the untraced median, on the figure tracing could move.
		name := "cpu_s_per_kanswer"
		if w == "ingest_refit" {
			name = "answers_per_s"
		}
		base := median(column(results, name))
		fmt.Printf("  %-38s %14.4f share (traced %s %.4f against the untraced median %.4f)\n",
			"trace overhead by run difference", math.Abs(r.Metrics[name]-base)/base, name, r.Metrics[name], base)
	}
	return nil
}

// benchmarkFile is BENCHMARK.json, exactly the keys the acceptance driver
// reads.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileMetric   `json:"end_to_end"`
	PerLayer   []fileLayer    `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type fileLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// maxBound is the largest regression bound the acceptance driver accepts.
const maxBound = 0.25

// benchmarkSpec renders the catalogue as BENCHMARK.json with the given
// bounds.
func benchmarkSpec(bounds map[string]float64, seconds int) benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: seconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, fileWorkload(w))
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, fileMetric{d.Name, d.Unit, d.Better, bounds[d.Name]})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, fileLayer{d.Name, d.Unit, d.Better})
	}
	return f
}

// calibration is benchmark/calibration.json: what the bounds were derived
// from.
type calibration struct {
	Seconds float64                       `json:"seconds"`
	Runs    int                           `json:"runs_per_set"`
	Seeds   [2][]int64                    `json:"seeds"`
	Spreads map[string]map[string]float64 `json:"spread_iqr_over_median"` // metric -> workload -> worst of the two sets
	Medians map[string]map[string]float64 `json:"median"`                 // metric -> workload -> first set
	Bounds  map[string]float64            `json:"bound"`
}

// calibrateBounds measures how steady every (end-to-end metric, workload)
// pair is and derives the regression bounds from it. It runs the full set
// twice — runs runs per workload, another seed each run, as the acceptance
// driver does — takes for each pair the quartile spread (IQR ÷ median, per
// Python's statistics.quantiles) of each set, and gives every metric the
// bound max(floor, 3 × its worst spread), capped at maxBound: a spread should
// stay under a third of its bound. It fails when a spread exceeds maxBound,
// or when the two sets' medians differ by more than the bound — the same
// acceptance test, run here so it can be re-checked on a new box.
func calibrateBounds(root string, seed int64, seconds float64, runs int) error {
	printEnvironment(os.Stderr)
	cal := calibration{
		Seconds: seconds, Runs: runs,
		Spreads: map[string]map[string]float64{}, Medians: map[string]map[string]float64{},
		Bounds: map[string]float64{},
	}
	for set := 0; set < 2; set++ {
		for i := 0; i < runs; i++ {
			cal.Seeds[set] = append(cal.Seeds[set], seed+int64(set*runs+i))
		}
	}
	type pair struct{ metric, workload string }
	var sets [2]map[pair][]float64
	for set := range sets {
		sets[set] = map[pair][]float64{}
		for _, w := range workloads {
			for _, s := range cal.Seeds[set] {
				r, err := runChild(filepath.Join(root, ".bench_build"), w.Name, s, seconds, false)
				if err != nil {
					return err
				}
				for _, d := range endToEnd {
					k := pair{d.Name, w.Name}
					sets[set][k] = append(sets[set][k], r.Metrics[d.Name])
				}
				fmt.Fprintf(os.Stderr, "calibrate: set %d %s seed %d done\n", set+1, w.Name, s)
			}
		}
	}
	var problems []string
	for _, d := range endToEnd {
		cal.Spreads[d.Name], cal.Medians[d.Name] = map[string]float64{}, map[string]float64{}
		worst := 0.0
		for _, w := range workloads {
			k := pair{d.Name, w.Name}
			sp := math.Max(spread(sets[0][k]), spread(sets[1][k]))
			cal.Spreads[d.Name][w.Name] = sp
			cal.Medians[d.Name][w.Name] = median(sets[0][k])
			worst = math.Max(worst, sp)
		}
		// A spread above maxBound fails the acceptance test outright; one
		// above a third of the bound passes it but leaves little room.
		bound := math.Min(maxBound, math.Max(d.Floor, math.Ceil(3*worst*100)/100))
		if worst > maxBound {
			problems = append(problems, fmt.Sprintf("%s: worst spread %.3f is above the largest allowed bound %.2f", d.Name, worst, maxBound))
		} else if 3*worst > bound {
			fmt.Fprintf(os.Stderr, "calibrate: %s: worst spread %.3f is above a third of its bound %.2f\n", d.Name, worst, bound)
		}
		cal.Bounds[d.Name] = bound
		for _, w := range workloads {
			k := pair{d.Name, w.Name}
			m1, m2 := median(sets[0][k]), median(sets[1][k])
			worse := (m2 - m1) / m1
			if d.Better == "higher" {
				worse = -worse
			}
			status := "ok"
			if worse > bound {
				status = "DISAGREE"
				problems = append(problems, fmt.Sprintf("%s on %s: second set's median %.4f is worse than the first's %.4f by %.1f%%, bound %.0f%%",
					d.Name, w.Name, m2, m1, 100*worse, 100*bound))
			}
			fmt.Printf("%-20s %-15s median %12.4f / %12.4f  spread %5.1f%% / %5.1f%%  bound %3.0f%%  %s\n",
				d.Name, w.Name, m1, m2, 100*spread(sets[0][k]), 100*spread(sets[1][k]), 100*bound, status)
		}
	}
	if err := writeJSON(filepath.Join(root, "benchmark", "calibration.json"), cal); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(root, "BENCHMARK.json"), benchmarkSpec(cal.Bounds, int(seconds))); err != nil {
		return err
	}
	if len(problems) > 0 {
		return fmt.Errorf("calibration failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
