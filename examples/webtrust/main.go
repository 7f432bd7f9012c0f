// Webtrust: the web-source trustworthiness application from the paper's
// introduction — run hierarchical truth discovery over a crawl, then rank
// the sources by their estimated reliability and inspect each source's
// generalization tendency (does it claim 'USA' when the truth is 'LA'?).
// Identified wrong values point at systematic extraction errors, the data
// cleaning use case of knowledge fusion.
package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/synth"
)

func main() {
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 11, Scale: 0.25})
	idx := data.NewIndex(ds)
	m := core.Run(idx, core.DefaultOptions())
	truths := m.Truths()

	// Rank sources with at least 5 claims by estimated exact reliability.
	type srcRow struct {
		name   string
		claims int
		phi    [3]float64
	}
	var rows []srcRow
	for _, s := range idx.SourceNames {
		n := len(idx.ObjectsOfSource(s))
		if n >= 5 {
			rows = append(rows, srcRow{s, n, m.PhiOf(s)})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].phi[0] > rows[j].phi[0] })
	fmt.Println("most trustworthy sources (>=5 claims), by estimated P(exact):")
	for i, r := range rows {
		if i == 10 {
			break
		}
		fmt.Printf("  %-10s claims=%3d exact=%.3f generalized=%.3f wrong=%.3f\n",
			r.name, r.claims, r.phi[0], r.phi[1], r.phi[2])
	}

	// Data cleaning: surface the claims TDH believes are wrong for the
	// least reliable source in the ranking.
	if len(rows) > 0 {
		worst := rows[len(rows)-1]
		fmt.Printf("\nsuspected extraction errors of %s:\n", worst.name)
		shown := 0
		for _, o := range idx.ObjectsOfSource(worst.name) {
			ci, _ := idx.SourceClaim(o, worst.name)
			claimed := idx.View(o).CI.Values[ci]
			if claimed != truths[o] && (ds.H == nil || !ds.H.IsAncestor(claimed, truths[o])) {
				fmt.Printf("  %-12s claimed %-22s inferred %s\n", o, claimed, truths[o])
				shown++
				if shown == 5 {
					break
				}
			}
		}
	}

	sc := eval.Evaluate(ds, idx, truths)
	fmt.Printf("\noverall: Accuracy=%.4f GenAccuracy=%.4f AvgDistance=%.4f over %d objects\n",
		sc.Accuracy, sc.GenAccuracy, sc.AvgDistance, sc.N)
}
