package data

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// wireDataset is the dataset file's shape as encoding/json sees it: the
// reference that Write and Decode are checked against.
type wireDataset struct {
	Name       string              `json:"name"`
	Root       string              `json:"root"`
	Edges      [][2]string         `json:"edges"` // [node, parent]
	Records    []Record            `json:"records"`
	Answers    []Answer            `json:"answers"`
	Truth      map[string]string   `json:"truth"`
	Domains    map[string]string   `json:"domains,omitempty"`
	Candidates map[string][]string `json:"candidates,omitempty"`
}

// refWrite is Write by reflection.
func refWrite(ds *Dataset) ([]byte, error) {
	wd := wireDataset{
		Name:       ds.Name,
		Records:    ds.Records,
		Answers:    ds.Answers,
		Truth:      ds.Truth,
		Domains:    ds.Domains,
		Candidates: ds.Candidates,
	}
	if ds.H != nil {
		wd.Root = ds.H.Root()
		nodes := ds.H.Nodes()
		sort.Strings(nodes)
		for _, n := range nodes {
			if p, ok := ds.H.Parent(n); ok {
				wd.Edges = append(wd.Edges, [2]string{n, p})
			}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(&wd)
	return buf.Bytes(), err
}

// refRead is Decode by reflection: the first JSON value in buf, trailing
// bytes ignored, decoded by json.Decoder as the dataset reader did before
// Decode.
func refRead(buf []byte) (*Dataset, error) {
	var wd wireDataset
	if err := json.NewDecoder(bytes.NewReader(buf)).Decode(&wd); err != nil {
		return nil, err
	}
	return assemble(&Dataset{
		Name:       wd.Name,
		Records:    wd.Records,
		Answers:    wd.Answers,
		Truth:      wd.Truth,
		Domains:    wd.Domains,
		Candidates: wd.Candidates,
	}, wd.Root, wd.Edges)
}

// FuzzDatasetRead checks Decode against encoding/json on arbitrary input:
// both accept the same inputs and yield reflect.DeepEqual datasets, and
// Write re-encodes the decoded dataset to the reference encoder's bytes.
// The seed corpus (testdata/fuzz/FuzzDatasetRead) covers Write's layout,
// a jq-style 2-space layout, key-case variants, nulls, duplicate keys,
// every escape, lone surrogates, invalid UTF-8 and out-of-range numbers.
func FuzzDatasetRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		got, gerr := Decode(in)
		want, werr := refRead(in)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Decode error %v, encoding/json error %v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode = %#v\nencoding/json = %#v", got, want)
		}
		var buf bytes.Buffer
		err := Write(&buf, got)
		ref, rerr := refWrite(want)
		if (err == nil) != (rerr == nil) || !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("Write = %q (%v)\nencoding/json = %q (%v)", buf.Bytes(), err, ref, rerr)
		}
	})
}
