// Command experiments regenerates the paper's tables and figures from the
// synthetic workloads. Examples:
//
//	experiments -exp table3              # one experiment at the default scale
//	experiments -exp all -scale 1.0      # full paper-scale run of everything
//	experiments -list                    # show available experiment IDs
//	experiments -exp fig12 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment ID (see -list) or 'all'")
		scale      = flag.Float64("scale", 0.25, "dataset scale; 1.0 = paper-sized")
		rounds     = flag.Int("rounds", 50, "crowdsourcing rounds for loop experiments")
		seed       = flag.Int64("seed", 7, "random seed")
		evalEvery  = flag.Int("eval-every", 5, "evaluate metrics every n rounds")
		format     = flag.String("format", "text", "output format: text, csv, json")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	cfg := experiments.Config{
		Scale:     *scale,
		Rounds:    *rounds,
		Seed:      *seed,
		EvalEvery: *evalEvery,
	}
	var err error
	if *exp == "all" {
		for _, id := range experiments.IDs() {
			if err = experiments.RunFormatted(os.Stdout, id, *format, cfg); err != nil {
				break
			}
		}
	} else {
		err = experiments.RunFormatted(os.Stdout, *exp, *format, cfg)
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile() // flush before any os.Exit below
	}
	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "experiments: memprofile:", merr)
			os.Exit(1)
		}
		runtime.GC() // materialize the steady-state live set
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fmt.Fprintln(os.Stderr, "experiments: memprofile:", merr)
			os.Exit(1)
		}
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
