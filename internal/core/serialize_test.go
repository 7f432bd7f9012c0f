package core

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/data"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := table1Dataset(t)
	idx := data.NewIndex(ds)
	m := Run(idx, DefaultOptions())

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, idx)
	if err != nil {
		t.Fatal(err)
	}
	for oid, mu := range muRows(m) {
		for i := range mu {
			if math.Abs(mu[i]-got.MuAt(oid)[i]) > 1e-15 {
				t.Fatalf("mu mismatch on %s", idx.Objects[oid])
			}
		}
	}
	for sid, phi := range m.Phi {
		if got.Phi[sid] != phi {
			t.Fatalf("phi mismatch on %s", idx.SourceNames[sid])
		}
	}
	if got.Iterations != m.Iterations || got.FinalDelta != m.FinalDelta {
		t.Fatal("iterations or final delta lost")
	}
	// The loaded model serves identical truths and incremental updates.
	a := m.Truths()
	b := got.Truths()
	for o := range a {
		if a[o] != b[o] {
			t.Fatalf("truth mismatch on %s", o)
		}
	}
	psi := m.DefaultPsi()
	statue, _ := idx.ObjectID("statue")
	if math.Abs(m.CondMaxConfidenceAt(statue, psi, 0)-got.CondMaxConfidenceAt(statue, psi, 0)) > 1e-15 {
		t.Fatal("incremental EM differs after load")
	}
}

func TestLoadRejectsMismatchedIndex(t *testing.T) {
	ds := table1Dataset(t)
	idx := data.NewIndex(ds)
	m := Run(idx, DefaultOptions())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// An index over a different dataset must be rejected.
	other := table1Dataset(t)
	other.Records = append(other.Records, data.Record{Object: "statue", Source: "extra", Value: "London"})
	if _, err := Load(bytes.NewReader(buf.Bytes()), data.NewIndex(other)); err == nil {
		t.Fatal("mismatched candidate sets must be rejected")
	}
	// Garbage input.
	if _, err := Load(strings.NewReader("{"), idx); err == nil {
		t.Fatal("invalid JSON must be rejected")
	}
	if _, err := Load(strings.NewReader("{}"), idx); err == nil {
		t.Fatal("empty snapshot must be rejected")
	}
}

// TestLoadSnapshotWithWorkers: snapshots written while Options had a
// Workers field carry a "Workers" key (testdata/snapshot-workers.json is
// one, from a fit of the Table 1 dataset with Workers -1). Load still
// accepts them and yields the model a fit gives today, and a new Save
// writes no such key.
func TestLoadSnapshotWithWorkers(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot-workers.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"Workers": -1`)) {
		t.Fatal("fixture lost its Workers key")
	}
	idx := data.NewIndex(table1Dataset(t))
	got, err := Load(bytes.NewReader(raw), idx)
	if err != nil {
		t.Fatal(err)
	}
	want := Run(idx, DefaultOptions())
	if got.Opt != want.Opt || fitHash(got) != fitHash(want) {
		t.Fatalf("loaded model differs from a fit: options %+v vs %+v, hash %#x vs %#x", got.Opt, want.Opt, fitHash(got), fitHash(want))
	}
	var buf bytes.Buffer
	if err := got.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Workers") {
		t.Fatalf("Save writes a Workers key:\n%s", buf.String())
	}
}
