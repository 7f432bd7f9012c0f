package data

// Exports for the external test package, which can import internal/synth.
var (
	RefNewIndex   = refNewIndex
	ApplyMutation = applyMutation
	CheckSameView = checkSameView
	CheckCarved   = checkCarved

	LargeCandidateDataset = largeCandidateDataset
)
