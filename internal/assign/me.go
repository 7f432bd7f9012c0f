package assign

// ME is the uncertainty-sampling baseline (Section 5.1): each round the
// objects whose confidence distributions have the highest entropy are
// asked, regardless of the expected accuracy gain. It runs on top of any
// inference algorithm since it needs only the result's confidence rows
// (Result.Rows). The entropy
// ranking is worker-independent, so it comes precomputed from the shared
// Plan; per call ME only deals the ranked objects out to the workers.
type ME struct{}

// Name implements Assigner.
func (ME) Name() string { return "ME" }

// Assign implements Assigner.
func (ME) Assign(ctx *Context) map[string][]string {
	return dealOut(ctx, ctx.plan(meParts).entRank)
}
