package snapshotmut

import "snaptypes"

// NewPlan is allowlisted in the test config: construction writes pass.
func NewPlan(n int) *snaptypes.Plan {
	p := &snaptypes.Plan{}
	p.MaxMu = make([]float64, n)
	p.Scores.Set(0, 1)
	p.Round = 1
	return p
}

// seal is excused by annotation rather than by the allowlist.
//
//tdh:mutator testdata: pre-publication construction, nothing aliases p yet
func seal(p *snaptypes.Plan) {
	p.Round++
}

func handler(s *snaptypes.Snapshot) {
	s.Round = 3      // want "write to snaptypes.Snapshot mutates a published value"
	s.P.MaxMu[0] = 1 // want "write to snaptypes.Plan mutates a published value"
	s.ByObj["x"] = 1 // want "write to snaptypes.Snapshot mutates a published value"
}

func aliased(p *snaptypes.Plan) {
	mu := p.Mu[0]
	mu[2] = 0.5 // want "alias of protected state"
}

func rangeAlias(p *snaptypes.Plan) {
	for _, row := range p.Mu {
		row[0] = 0 // want "alias of protected state"
	}
}

func fill(p *snaptypes.Plan, xs []float64) {
	copy(p.MaxMu, xs) // want "copy into snaptypes.Plan"
}

func bump(p *snaptypes.Plan) {
	p.Round++ // want "write to snaptypes.Plan mutates a published value"
}

// A writer method on a container reached through a protected value writes
// that value; a reader method does not.
func rescore(s *snaptypes.Snapshot) float64 {
	s.P.Scores.Set(0, 1) // want "Set on snaptypes.Plan mutates a published value"
	return s.P.Scores.At(0)
}

// freshCopy writes into a copy: the append call breaks the alias chain.
func freshCopy(p *snaptypes.Plan) []float64 {
	cp := append([]float64(nil), p.MaxMu...)
	cp[0] = 1
	return cp
}

type holder struct{ pl *snaptypes.Plan }

// publish rebinds a pointer field of an unprotected struct to a fresh
// plan — that is publication, not mutation.
func publish(h *holder) {
	h.pl = NewPlan(4)
}

var _ = seal
var _ = handler
var _ = aliased
var _ = rangeAlias
var _ = fill
var _ = bump
var _ = rescore
var _ = freshCopy
var _ = publish
