package data_test

import (
	"bytes"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/hierarchy"
	"repro/internal/synth"
)

// craftedDataset uses every field Write emits and every class of string
// escape: quotes and backslashes, the short control escapes, other control
// bytes, HTML-sensitive characters, U+2028/U+2029, DEL, multi-byte UTF-8,
// invalid UTF-8, and numeric answers in both float layouts. It has no
// hierarchy, so root is empty and edges are null; one candidate list is nil
// (null) and one is empty.
func craftedDataset() *data.Dataset {
	nums := []float64{0.1, 1e-7, 1e21, math.Copysign(0, -1), 123456789}
	ds := &data.Dataset{
		Name: "crafted \"q\" \\ \b\f\n\r\t \x01\x1f <a&b> \u2028\u2029 \x7f é 😀 \xff\xfe end",
		Records: []data.Record{
			{Object: "o<1>", Source: "s&1", Value: "v\u2028"},
			{Object: "o\x00", Source: "s\t", Value: "\xc3"},
		},
		Truth:   map[string]string{"o<1>": "v\u2028", "o\x00": "\xed\xa0\x80", "": "empty key"},
		Domains: map[string]string{"o<1>": "dom/1", "o\x00": "dom\\2"},
		Candidates: map[string][]string{
			"o<1>":    {"v\u2028", "c&2", ""},
			"nil":     nil,
			"empty":   {},
			"o\u2029": {"\x80"},
		},
	}
	for i, n := range nums {
		ds.Answers = append(ds.Answers, data.Answer{Object: "o<1>", Worker: string(rune('a' + i)), Value: "n", Num: &n})
	}
	ds.Answers = append(ds.Answers,
		data.Answer{Object: "o<1>", Worker: "set", Value: "v\u2028", Values: []string{"v\u2028", "c&2"}},
		data.Answer{Object: "o<1>", Worker: "emptyset", Value: "x", Values: []string{}})
	return ds
}

// craftedTree is a hierarchy whose node names need escaping, on a dataset
// whose nil slices and maps write as null.
func craftedTree() *data.Dataset {
	t := hierarchy.New("root<>")
	t.MustAdd("a\"b", "root<>")
	t.MustAdd("c\\d", "a\"b")
	t.MustAdd("\u2028", "root<>")
	t.Freeze()
	return &data.Dataset{Name: "tree", H: t}
}

// TestWriteGolden pins the bytes Write emits: an FNV-64a of the indented
// JSON for two synthesized datasets with crowd answers and for the crafted
// edge cases above, recorded from the encoding/json writer.
func TestWriteGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		ds   *data.Dataset
		want uint64
	}{
		{"birthplaces", withAnswers(synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 7, Scale: 0.05}), 300, 10, 3), 0x5f1d3983c500a5c9},
		{"heritages", withAnswers(synth.Heritages(synth.HeritagesConfig{Seed: 7, Scale: 0.1}), 300, 10, 4), 0xbe8623af96dc7c1},
		{"crafted", craftedDataset(), 0xfc6ed266e11e559},
		{"tree", craftedTree(), 0xf99679b30a091f8d},
	} {
		var buf bytes.Buffer
		if err := data.Write(&buf, c.ds); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: Write hash %#x, want %#x (%d bytes)", c.name, got, c.want, buf.Len())
		}
	}
}

// TestWriteRejectsNonFinite: JSON has no NaN or infinity, so a numeric
// answer holding one fails the write instead of producing an unreadable
// file.
func TestWriteRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ds := &data.Dataset{Name: "x", Answers: []data.Answer{{Object: "o", Worker: "w", Value: "v", Num: &f}}}
		if err := data.Write(&bytes.Buffer{}, ds); err == nil {
			t.Errorf("Write accepted num %v", f)
		}
	}
}
