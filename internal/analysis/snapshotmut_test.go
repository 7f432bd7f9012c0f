package analysis

import "testing"

func TestSnapshotmut(t *testing.T) {
	runTest(t, Snapshotmut(SnapshotmutConfig{
		Protected: []string{"snaptypes.Plan", "snaptypes.Snapshot"},
		Allowed:   []string{"snapshotmut.NewPlan"},
		Writers:   []string{"snaptypes.Vec.Set"},
	}), "snapshotmut")
}
