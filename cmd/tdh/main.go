// Command tdh runs hierarchical truth inference over a dataset file (the
// JSON format of internal/data) and prints the inferred truths with their
// confidences, plus per-source trustworthiness distributions.
//
//	tdh -in dataset.json            # TDH (default)
//	tdh -in dataset.json -alg VOTE  # any algorithm of the paper
//	tdh -in dataset.json -eval      # score against the embedded gold truth
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/experiments"
)

func main() {
	var (
		in       = flag.String("in", "", "input dataset JSON (required)")
		alg      = flag.String("alg", "TDH", "algorithm: TDH, VOTE, LCA, DOCS, ASUMS, MDC, ACCU, POPACCU, LFC, CRH")
		doEval   = flag.Bool("eval", false, "evaluate against the dataset's gold standard")
		showSrc  = flag.Bool("sources", false, "print per-source trust estimates")
		showConf = flag.Bool("conf", false, "print full confidence distributions")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	ds, err := data.LoadFile(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdh:", err)
		os.Exit(1)
	}
	inferencer, ok := experiments.InferencerByName(*alg)
	if !ok {
		fmt.Fprintf(os.Stderr, "tdh: unknown algorithm %q\n", *alg)
		os.Exit(2)
	}
	idx := data.NewIndex(ds)
	res := inferencer.Infer(idx)

	for oid, o := range idx.Objects { // sorted by NewIndex
		fmt.Printf("%s\t%s\n", o, res.TruthAt(oid))
		if *showConf {
			conf := res.ConfidenceAt(oid)
			for i, v := range idx.ViewAt(oid).CI.Values {
				fmt.Printf("  %-30s %.4f\n", v, conf[i])
			}
		}
	}
	if *showSrc {
		fmt.Println("-- source trust --")
		if m, ok := res.Model.(*core.Model); ok {
			for _, s := range idx.SourceNames {
				phi := m.PhiOf(s)
				fmt.Printf("%s\texact=%.4f generalized=%.4f wrong=%.4f\n", s, phi[0], phi[1], phi[2])
			}
		} else {
			for _, s := range idx.SourceNames {
				fmt.Printf("%s\ttrust=%.4f\n", s, res.SourceTrust[s])
			}
		}
	}
	if *doEval {
		sc := eval.Evaluate(ds, idx, res.Truths)
		fmt.Printf("-- evaluation (%d objects) --\n", sc.N)
		fmt.Printf("Accuracy=%.4f GenAccuracy=%.4f AvgDistance=%.4f\n", sc.Accuracy, sc.GenAccuracy, sc.AvgDistance)
	}
}
