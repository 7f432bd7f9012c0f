package data

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestIORoundTrip(t *testing.T) {
	ds := tinyDataset(t)
	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name {
		t.Fatalf("name %q", got.Name)
	}
	if len(got.Records) != len(ds.Records) || len(got.Answers) != len(ds.Answers) {
		t.Fatal("records/answers lost")
	}
	for o, v := range ds.Truth {
		if got.Truth[o] != v {
			t.Fatalf("truth %q mismatch", o)
		}
	}
	if got.H == nil || got.H.Len() != ds.H.Len() || got.H.Height() != ds.H.Height() {
		t.Fatal("hierarchy not reconstructed")
	}
	if !got.H.IsAncestor("USA", "LibertyIsland") {
		t.Fatal("hierarchy relations lost")
	}
	if got.Domains["statue"] != "USA" {
		t.Fatal("domains lost")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Fatal("invalid JSON must fail")
	}
	// Orphan edge: parent never declared.
	bad := `{"name":"x","root":"r","edges":[["a","ghost"]],"records":[],"truth":{}}`
	if _, err := Decode([]byte(bad)); err == nil {
		t.Fatal("orphan edges must fail")
	}
	// No hierarchy at all is fine.
	ok := `{"name":"x","records":[{"object":"o","source":"s","value":"v"}],"truth":{}}`
	ds, err := Decode([]byte(ok))
	if err != nil {
		t.Fatal(err)
	}
	if ds.H != nil {
		t.Fatal("absent hierarchy must stay nil")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.json")
	ds := tinyDataset(t)
	if err := SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(ds.Records) {
		t.Fatal("file round-trip mismatch")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestSaveFileFailureKeepsPrevious: SaveFile replaces the file atomically,
// so a save that fails midway leaves the previous file readable and no
// temporary file behind.
func TestSaveFileFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.json")
	ds := tinyDataset(t)
	if err := SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	bad := ds.Clone()
	nan := math.NaN()
	bad.Answers = append(bad.Answers, Answer{Object: "statue", Worker: "w", Value: "NY", Num: &nan})
	if err := SaveFile(path, bad); err == nil {
		t.Fatal("saving a NaN answer must fail")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Answers, ds.Answers) {
		t.Fatalf("answers after failed save = %+v, want %+v", got.Answers, ds.Answers)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ds.json" {
		t.Fatalf("directory after failed save holds %v", entries)
	}
}
