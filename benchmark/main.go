// Command benchmark is the repository's one reproducible benchmark: it
// drives the real /v1/campaigns/{id}/... HTTP API of an in-process
// campaign.Manager over loopback, and separately runs the paper's offline
// crowdsourcing loop, and reports named end-to-end and per-layer metrics.
// See README.md in this directory for the catalogue; BENCHMARK.json at the
// repository root names the metrics, workloads and regression bounds.
//
//	go run -C benchmark . --workload ingest_refit --seed 1 --seconds 10 --trace 0
//
// runs one workload once in this process and prints, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Everything meant for people goes to standard error.
//
//	go run -C benchmark . -workload all -runs 5 -trace 1
//
// runs every workload five times untraced plus once traced, each run in a
// fresh process, and prints medians with quartiles.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const defaultSeconds = 15

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed      = flag.Int64("seed", 1, "seed of every generated input: datasets, worker pool, answers, schedule, campaign seed")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long one drive measures (open loops run this long; the closed loop and the batch spend a work budget proportional to it)")
		trace     = flag.Int("trace", 0, "1 = traced run: record spans, scrape /metrics, replay the layers, report per-layer metrics")
		runs      = flag.Int("runs", 1, "untraced runs per workload, each in a fresh process (with -trace 1: plus one traced run)")
		traceOut  = flag.String("trace-out", "", "traced run: write spans and counts as JSON here (default: .bench_build/trace-<workload>.json in the checkout)")
		out       = flag.String("out", "", "write the full result (metrics, checks, counts) as JSON here")
		calibrate = flag.Bool("calibrate", false, "run the full set twice over (2 x -runs, at least 3 each) with another seed per run, write observed spreads to benchmark/calibration.json and the resulting bounds to BENCHMARK.json, and fail if the two sets disagree")
		smoke     = flag.Bool("smoke", false, "run all four workloads traced at scale 0.05 for 1 s in this process, exercising every check")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	root, err := checkoutRoot()
	if err != nil {
		fatal(err)
	}
	work := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err)
	}

	switch {
	case *smoke:
		for _, w := range workloadNames() {
			res, err := runOnce(params{workload: w, seed: *seed, seconds: 1, scale: 0.05}, work, true)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w, err))
			}
			report(os.Stderr, res)
			if !res.correct() {
				fatal(fmt.Errorf("%s: a correctness check failed", w))
			}
		}
		return
	case *calibrate:
		if err := calibrateBounds(root, *seed, *seconds, max(*runs, 3)); err != nil {
			fatal(err)
		}
		return
	case *workload == "all" || *runs > 1:
		names := workloadNames()
		if *workload != "all" {
			names = []string{*workload}
		}
		if err := runMany(work, names, *seed, *seconds, *runs, *trace == 1); err != nil {
			fatal(err)
		}
		return
	}

	// One workload, once, in this process: the mode the acceptance driver
	// runs.
	p := params{workload: *workload, seed: *seed, seconds: *seconds, scale: 1}
	traced := *trace == 1
	printEnvironment(os.Stderr)
	res, err := runOnce(p, work, traced)
	if err != nil {
		fatal(err)
	}
	report(os.Stderr, res)
	if traced {
		path := *traceOut
		if path == "" {
			path = filepath.Join(work, "trace-"+p.workload+".json")
		}
		if err := writeTrace(path, res); err != nil {
			fatal(err)
		}
		printBudget(os.Stderr, "restart", res.spans, "restart")
		printBudget(os.Stderr, "one coordinator cycle", res.spans, "cycle")
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(res.spans), path)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fatal(err)
		}
	}
	line, err := resultLine(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	if !res.correct() {
		os.Exit(1)
	}
}

// runOnce runs one workload once in this process.
func runOnce(p params, work string, traced bool) (*runResult, error) {
	if p.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if p.workload == "crowd_batch" {
		return runBatch(p, work, traced)
	}
	for _, w := range workloadNames() {
		if w == p.workload {
			return runServing(p, work, traced)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", p.workload, strings.Join(workloadNames(), ", "))
}

// checkoutRoot finds the checkout the benchmark runs in: the nearest
// directory at or above the working directory that holds BENCHMARK.json.
// Everything the benchmark writes goes under .bench_build there.
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// wireMetric is one metric in the result line.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the run as the one-line JSON object the acceptance
// driver reads: every end-to-end metric for an untraced run, every
// per-layer metric for a traced one (a per-layer metric that does not apply
// to the workload reads 0).
func resultLine(res *runResult) (string, error) {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	metrics := make(map[string]wireMetric, len(defs))
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && !res.Traced {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		metrics[d.Name] = wireMetric{Value: v, Unit: d.Unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, metrics})
	return string(buf), err
}

// report prints every measured metric by name with its unit, then the
// checks.
func report(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  requests %d  failed %d\n",
		res.Workload, res.Seed, res.Traced, res.Attempted, res.Failed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-38s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	if len(res.Counts) > 0 {
		keys := make([]string, 0, len(res.Counts))
		for k := range res.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  count %-32s %14.4f\n", k, res.Counts[k])
		}
	}
	for _, c := range res.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s", status, c.Name)
		if !c.OK {
			fmt.Fprintf(w, ": %s", c.Detail)
		}
		fmt.Fprintln(w)
	}
}

// printEnvironment records the box a run was measured on.
func printEnvironment(w io.Writer) {
	shards := min(runtime.GOMAXPROCS(0), 8) // server.RefitPolicy's default: GOMAXPROCS capped at 8
	fmt.Fprintf(w, "environment: nproc %d  GOMAXPROCS %d  clients %d  default shards %d (ingest_refit pins 1)  %s  cpu %q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), clientCount(), shards, runtime.Version(), cpuModel())
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeTrace writes a traced run's spans and counts.
func writeTrace(path string, res *runResult) error {
	return writeJSON(path, struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Counts   map[string]float64 `json:"counts"`
		Metrics  map[string]float64 `json:"metrics"`
		Spans    []span             `json:"spans"`
	}{res.Workload, res.Seed, res.Counts, res.Metrics, res.spans})
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
