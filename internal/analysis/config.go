package analysis

// This repo's default analyzer configuration. Package parts match by
// trailing path components, so entries written as "internal/xxx.Name" work
// for the module path "repro/internal/xxx".

// DefaultSnapshotmut protects the values the server publishes behind the
// atomic snapshot pointer — and the model/index layers they alias.
func DefaultSnapshotmut() SnapshotmutConfig {
	return SnapshotmutConfig{
		Protected: []string{
			"internal/server.Snapshot",
			"internal/assign.Plan",
			"internal/core.Model",
			"internal/data.Index",
			"internal/data.ObjectView",
			"internal/infer.Result",
			"internal/infer.Table",
			// engine.State implementations: immutable once returned by
			// Fit/Seal/Grow.
			"internal/engine.catState",
			"internal/engine.numState",
			"internal/engine.multiState",
		},
		Allowed: []string{
			// Plan construction and delta maintenance.
			"internal/assign.NewPlan",
			"internal/assign.PlanFor",
			"internal/assign.build",
			"internal/assign.Plan.Advance",
			// Model construction, the EM itself, incremental folds and
			// open-world growth. Run and its helpers own the model until
			// they return it.
			"internal/core.NewModel",
			"internal/core.newModelShell",
			"internal/core.Model.initialize",
			"internal/core.Model.initObjectMu",
			"internal/core.Run",
			"internal/core.run",
			"internal/core.Model.evaluate",
			"internal/core.Model.extrapolate",
			"internal/core.Model.finish",
			"internal/core.Model.step",
			"internal/core.Model.StepOnce",
			"internal/core.Model.scratch",
			"internal/core.Model.updateMu",
			"internal/core.Model.updatePhi",
			"internal/core.Model.updatePsi",
			"internal/core.Model.refreshObjectStats",
			"internal/core.Model.Clone",
			// The page-owning writer: the fold, which takes the
			// copy-on-write step first and writes only pages the model owns.
			"internal/core.Model.ApplyAnswerAt",
			"internal/core.Model.Grow",
			"internal/core.Model.blendPreviousMu",
			"internal/core.Load",
			// The numeric engine's state builders: every one writes a state
			// newNumState or fork just made, which nothing aliases until an
			// Engine or Epoch method returns it.
			"internal/engine.newNumState",
			"internal/engine.numState.fork",
			"internal/engine.numState.parseClaims",
			"internal/engine.numState.claimTable",
			"internal/engine.numState.addClaim",
			"internal/engine.numState.foldClaim",
			"internal/engine.numState.setEstimate",
			// Index construction and open-world extension own their
			// views and tables until the index is returned.
			"internal/data.NewIndex",
			"internal/data.Index.buildDerived",
			"internal/data.Index.Extend",
			"internal/data.builder.views",
			"internal/data.ObjectView.fillTables",
			// Inferencers build their Result before handing it over;
			// nothing outside the package may touch one afterwards.
			"internal/infer.*",
		},
		// The copy-on-write containers under the model and the plan have no
		// assignable elements; these are their only write paths. A Table's
		// truths are written through SetTruth.
		Writers: []string{
			"internal/cow.table.Own",
			"internal/cow.Vec.Set",
			"internal/infer.Table.SetTruth",
		},
	}
}

// DefaultDetreplay covers the packages whose outputs are published,
// ranked, or written to / recovered from the event log.
func DefaultDetreplay() DetreplayConfig {
	return DetreplayConfig{
		Packages: []string{
			"internal/infer",
			"internal/numeric",
			"internal/assign",
			"internal/engine",
			"internal/core",
			"internal/eventlog",
			"internal/server",
		},
	}
}

// DefaultPipelineonly restricts the state-mutating entry points to the
// pipeline call graph within the serving layer.
func DefaultPipelineonly() PipelineonlyConfig {
	return PipelineonlyConfig{
		CallerPackages: []string{
			"internal/server",
			"internal/campaign",
		},
		Restricted: []string{
			"internal/core.Model.ApplyAnswerAt",
			"internal/core.Model.Grow",
			"internal/data.Index.Extend",
			"internal/engine.Engine.Fit",
			"internal/engine.Engine.ApplyAnswers",
			"internal/engine.Engine.Grow",
			"internal/engine.EpochFolder.NewEpoch",
			"internal/engine.Epoch.Fold",
			"internal/engine.Epoch.Seal",
			"internal/assign.Plan.Advance",
		},
	}
}

// DefaultHotpathalloc: hot paths may call math, sync/atomic (atomic ops
// never allocate; the obs instruments' hot methods are built on them) and
// each other; anything else is assumed to allocate.
func DefaultHotpathalloc() HotpathallocConfig {
	return HotpathallocConfig{
		AllowedStdlib:  []string{"math", "math/bits", "sync/atomic"},
		ModulePrefixes: []string{"repro"},
	}
}
