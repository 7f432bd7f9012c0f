package server

import (
	"time"

	"repro/internal/assign"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/infer"
)

// Snapshot is an immutable view of the campaign state, published by the
// inference pipeline through an atomic pointer. Read endpoints serve
// entirely from the snapshot they load, so a request observes one
// consistent (index, result, round, answer-count) tuple even while a full
// refit is in flight — and never waits for one.
//
// Nothing reachable from a Snapshot is mutated after publication: a fold
// writes a clone of the sealed model, never the model itself, and the
// published Result is a view over that sealed model — sharing its rows, not
// copying them — so the guarantee rests on the engine never writing a state
// it has returned. One thing is filled lazily, in mechanism but not in
// contract: the state's name-keyed truths map is materialized at most once,
// behind a sync.Once, and immutable from then on.
type Snapshot struct {
	// Idx is the candidate-set index the St was computed against: its
	// result's rows are shaped by it (St.Res().Rows.Index() == Idx), which
	// is what lets every reader address them by Idx's dense IDs.
	Idx *data.Index
	// St is the engine state of this round: the truth-model-specific
	// inference output plus its wire encoders (/truths, /confidence shapes).
	St engine.State
	// Res is St.Res(), cached at publish: the assigner-facing view
	// (confidence rows, trust maps, model) every truth model provides. Read
	// per-object content through its ID-based API (ConfidenceAt, TruthAt,
	// TruthMap): between refits its Truths map is nil.
	Res *infer.Result
	// Round counts completed full refits (the old "inference_runs").
	Round int64
	// Answers is the number of crowd answers accepted by this server
	// instance and folded into this snapshot. It trails the accepted count
	// while answers sit in the ingest queue and catches up as the pipeline
	// drains; answers recovered into the dataset before startup are part of
	// the dataset itself, not this counter.
	Answers int
	// Mutations counts the open-world dataset mutations (object and record
	// additions) folded into this snapshot, with the same trailing
	// semantics as Answers.
	Mutations int
	// PublishedAt is when the pipeline stored this snapshot (feeds the
	// /stats snapshot-age gauge).
	PublishedAt time.Time
	// Watermark is the visibility watermark: the highest ingest sequence
	// number (assigned at enqueue, monotonic) folded into this snapshot. An
	// accepted item with sequence s is visible — its answer counted, its
	// mutation indexed, its effect on truths published — exactly when a
	// snapshot with Watermark >= s is current.
	Watermark int64

	plan *assign.Plan
}

// Plan returns the snapshot's shared assignment plan — the worker-
// independent precompute the campaign's assigner reads (assign.PlanFor:
// under EAI the UEAI bounds in scan order and the cold-worker EAI scores;
// under ME the entropy ranking; under MB the entropies; under QASCA the
// max confidences) that every /task request against this snapshot reads
// instead of rebuilding O(|O| log |O|) state per request. The pipeline
// builds every snapshot with its plan complete (built, advanced from the
// previous snapshot's, or reused).
func (sn *Snapshot) Plan() *assign.Plan { return sn.plan }

// snap loads the current snapshot; it is never nil after New.
func (s *Server) snap() *Snapshot { return s.current.Load() }

// Snapshot returns the currently published snapshot (programmatic access
// for tests, benchmarks and embedding applications). The caller must treat
// everything reachable from it as read-only.
func (s *Server) Snapshot() *Snapshot { return s.snap() }
