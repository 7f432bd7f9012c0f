package data

import (
	"reflect"
	"testing"

	"repro/internal/hierarchy"
)

func tinyTree(t *testing.T) *hierarchy.Tree {
	t.Helper()
	tr := hierarchy.New(hierarchy.Root)
	for _, e := range [][2]string{
		{"USA", hierarchy.Root}, {"UK", hierarchy.Root},
		{"NY", "USA"}, {"LA", "USA"}, {"LibertyIsland", "NY"},
		{"London", "UK"}, {"Manchester", "UK"},
	} {
		tr.MustAdd(e[0], e[1])
	}
	tr.Freeze()
	return tr
}

func tinyDataset(t *testing.T) *Dataset {
	t.Helper()
	return &Dataset{
		Name: "tiny",
		Records: []Record{
			{"statue", "unesco", "NY"},
			{"statue", "wiki", "LibertyIsland"},
			{"statue", "arrangy", "LA"},
			{"bigben", "quora", "Manchester"},
			{"bigben", "trip", "London"},
		},
		Answers: []Answer{
			{Object: "bigben", Worker: "emma", Value: "London"},
		},
		Truth:   map[string]string{"statue": "LibertyIsland", "bigben": "London"},
		Domains: map[string]string{"statue": "USA", "bigben": "UK"},
		H:       tinyTree(t),
	}
}

func TestDatasetAccessors(t *testing.T) {
	ds := tinyDataset(t)
	if got := ds.Objects(); len(got) != 2 || got[0] != "bigben" || got[1] != "statue" {
		t.Fatalf("Objects = %v", got)
	}
	if got := ds.Sources(); len(got) != 5 {
		t.Fatalf("Sources = %v", got)
	}
	if got := ds.Workers(); len(got) != 1 || got[0] != "emma" {
		t.Fatalf("Workers = %v", got)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetValidateErrors(t *testing.T) {
	ds := tinyDataset(t)
	ds.Records = append(ds.Records, Record{"", "s", "v"})
	if err := ds.Validate(); err == nil {
		t.Fatal("empty object must fail validation")
	}
	ds = tinyDataset(t)
	ds.Answers = append(ds.Answers, Answer{Object: "o", Worker: "w", Value: ""})
	if err := ds.Validate(); err == nil {
		t.Fatal("empty value must fail validation")
	}
}

func TestClone(t *testing.T) {
	ds := tinyDataset(t)
	c := ds.Clone()
	c.Records[0].Value = "CHANGED"
	c.Truth["statue"] = "CHANGED"
	c.Answers = append(c.Answers, Answer{Object: "statue", Worker: "w2", Value: "NY"})
	if ds.Records[0].Value == "CHANGED" || ds.Truth["statue"] == "CHANGED" {
		t.Fatal("Clone must deep-copy records and truth")
	}
	if len(ds.Answers) != 1 {
		t.Fatal("Clone must not share the answers slice")
	}
	if c.H != ds.H {
		t.Fatal("Clone shares the immutable tree")
	}
}

func TestScale(t *testing.T) {
	ds := tinyDataset(t)
	s := ds.Scale(3)
	if len(s.Records) != 3*len(ds.Records) {
		t.Fatalf("scaled records = %d", len(s.Records))
	}
	if len(s.Truth) != 3*len(ds.Truth) {
		t.Fatalf("scaled truth = %d", len(s.Truth))
	}
	if len(s.Objects()) != 3*len(ds.Objects()) {
		t.Fatalf("scaled objects = %d", len(s.Objects()))
	}
	// Scale(1) and Scale(0) degrade to Clone.
	if got := ds.Scale(1); len(got.Records) != len(ds.Records) {
		t.Fatal("Scale(1) must be a clone")
	}
	// Sources are renamed per copy so reliabilities stay per-copy.
	if len(s.Sources()) != 3*len(ds.Sources()) {
		t.Fatalf("scaled sources = %d", len(s.Sources()))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestScaleKeepsEveryField: every copy Scale makes carries every field of
// the dataset — records, answers with their multi-truth Values and numeric
// Num, truth, domains and candidate seeds (an object seeded by candidates
// alone included) — under the copy's names; Scale(1) is the dataset itself.
func TestScaleKeepsEveryField(t *testing.T) {
	num := 42.5
	ds := tinyDataset(t)
	ds.Answers = append(ds.Answers,
		Answer{Object: "statue", Worker: "emma", Value: "NY", Values: []string{"NY", "LA"}},
		Answer{Object: "statue", Worker: "finn", Value: "42.5", Num: &num})
	ds.Candidates = map[string][]string{"abbey": {"London", "Manchester"}, "statue": {"UK"}}
	for _, c := range []struct {
		k    int
		name string
		sufs []string
	}{
		{1, "tiny", []string{""}},
		{2, "tiny-x2", []string{"#0", "#1"}},
	} {
		s := ds.Scale(c.k)
		var want Dataset
		want.Truth, want.Domains, want.Candidates = map[string]string{}, map[string]string{}, map[string][]string{}
		for _, suf := range c.sufs {
			for _, r := range ds.Records {
				want.Records = append(want.Records, Record{r.Object + suf, r.Source + suf, r.Value})
			}
			for _, a := range ds.Answers {
				a.Object, a.Worker = a.Object+suf, a.Worker+suf
				want.Answers = append(want.Answers, a)
			}
			for o, v := range ds.Truth {
				want.Truth[o+suf] = v
			}
			for o, v := range ds.Domains {
				want.Domains[o+suf] = v
			}
			for o, v := range ds.Candidates {
				want.Candidates[o+suf] = v
			}
		}
		want.Name, want.H = c.name, ds.H
		if !reflect.DeepEqual(s, &want) {
			t.Errorf("Scale(%d) = %+v\nwant %+v", c.k, s, &want)
		}
		if got, w := len(s.Objects()), c.k*len(ds.Objects()); got != w {
			t.Errorf("Scale(%d) has %d objects, want %d", c.k, got, w)
		}
	}
}
