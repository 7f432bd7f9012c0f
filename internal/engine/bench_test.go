package engine

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/numeric"
)

// BenchmarkNumericFit times one cold numeric fit — what a restart and every
// refit of a numeric campaign pay — on the 300-symbol stock attribute the
// mixed_tenants workload serves, plus 1,300 worker answers.
func BenchmarkNumericFit(b *testing.B) {
	ds := stockDataset(300)
	idx := data.NewIndex(ds)
	ds.Answers = noisyAnswers(rand.New(rand.NewSource(1)), NewNumeric(numeric.Mean{}).Fit(idx), idx, 0, 1300)
	idx = data.NewIndex(ds)
	for _, est := range []numeric.Estimator{numeric.CRH{}, numeric.CATD{}} {
		eng := NewNumeric(est)
		b.Run(est.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				eng.Fit(idx)
			}
		})
	}
}
