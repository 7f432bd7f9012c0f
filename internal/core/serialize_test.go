package core

import (
	"bytes"
	"math"
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
	if math.Abs(m.CondMaxConfidence("statue", psi, 0)-got.CondMaxConfidence("statue", psi, 0)) > 1e-15 {
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
