// Command tdhlint runs the repo's invariant analyzer suite
// (internal/analysis): snapshotmut, detreplay, pipelineonly, hotpathalloc
// and tdhnote, over import path patterns (default ./...):
//
//	go run ./cmd/tdhlint ./...
//
// It takes no flags. Exit 0 is a clean tree, 1 means findings (printed to
// stdout), and 2 means the suite could not run: a flag argument, or
// patterns that did not load or type-check.
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	patterns := os.Args[1:]
	for _, arg := range patterns {
		if strings.HasPrefix(arg, "-") {
			fmt.Fprintf(os.Stderr, "tdhlint: unknown flag %s\nusage: tdhlint [package patterns] (default ./...)\n", arg)
			os.Exit(2)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	n, err := analysis.RunStandalone(".", patterns, analysis.Suite(), os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tdhlint: %v\n", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "tdhlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}
