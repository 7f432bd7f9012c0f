// Package data defines the record/answer model of crowdsourced truth
// discovery (Definitions 2.1–2.4 of the paper) and the candidate-set index
// shared by every inference algorithm in this repository.
package data

import (
	"fmt"
	"sort"

	"repro/internal/hierarchy"
)

// Record is a claim (o, s, v_o^s) collected from a data source.
type Record struct {
	Object string `json:"object"`
	Source string `json:"source"`
	Value  string `json:"value"`
}

// Answer is a claim (o, w, v_o^w) collected from a crowd worker. Value is
// always the canonical single claim; campaigns running a non-categorical
// truth model attach their typed payload alongside it:
//
//   - multi-truth campaigns set Values to the full answered value SET, with
//     Value holding its primary (first) element so every single-truth
//     consumer still sees exactly one claim per (object, worker);
//   - numeric campaigns set Num to the parsed numeric payload, with Value
//     holding its canonical decimal string.
type Answer struct {
	Object string `json:"object"`
	Worker string `json:"worker"`
	Value  string `json:"value"`
	// Values is the multi-truth answer set (nil for single-truth answers).
	// The index turns each extra value into an additional worker claim on
	// the same object, which multi-truth discoverers read as one provider
	// claiming a set.
	Values []string `json:"values,omitempty"`
	// Num is the typed numeric payload of a numeric-campaign answer.
	Num *float64 `json:"num,omitempty"`
}

// Dataset bundles the inputs of the truth-discovery problem: source records,
// worker answers, the value hierarchy, the gold standard, and optional
// object domains (used by the domain-aware baselines DOCS and DART).
type Dataset struct {
	Name    string            `json:"name"`
	Records []Record          `json:"records"`
	Answers []Answer          `json:"answers"`
	Truth   map[string]string `json:"truth"`   // object -> gold value
	Domains map[string]string `json:"domains"` // object -> domain label, optional
	// Candidates seeds extra candidate values per object, beyond the values
	// claimed by records and answers. It is how an open-world campaign
	// declares an object before any source has claimed it (POST /objects):
	// the object becomes part of the index — and therefore assignable as a
	// task — with the seeded value set as its Vo.
	Candidates map[string][]string `json:"candidates,omitempty"`
	H          *hierarchy.Tree     `json:"-"`
}

// Clone returns a deep copy of the dataset sharing the (immutable) tree.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{
		Name:    d.Name,
		Records: append([]Record(nil), d.Records...),
		Answers: append([]Answer(nil), d.Answers...),
		Truth:   make(map[string]string, len(d.Truth)),
		Domains: make(map[string]string, len(d.Domains)),
		H:       d.H,
	}
	for k, v := range d.Truth {
		c.Truth[k] = v
	}
	for k, v := range d.Domains {
		c.Domains[k] = v
	}
	if d.Candidates != nil {
		c.Candidates = make(map[string][]string, len(d.Candidates))
		for k, v := range d.Candidates {
			c.Candidates[k] = append([]string(nil), v...)
		}
	}
	return c
}

// Objects returns the sorted set of objects that appear in records, answers
// or candidate seeds.
func (d *Dataset) Objects() []string {
	seen := map[string]bool{}
	for _, r := range d.Records {
		seen[r.Object] = true
	}
	for _, a := range d.Answers {
		seen[a.Object] = true
	}
	for o := range d.Candidates {
		seen[o] = true
	}
	out := make([]string, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Sources returns the sorted set of sources.
func (d *Dataset) Sources() []string {
	seen := map[string]bool{}
	for _, r := range d.Records {
		seen[r.Source] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Workers returns the sorted set of workers present in answers.
func (d *Dataset) Workers() []string {
	seen := map[string]bool{}
	for _, a := range d.Answers {
		seen[a.Worker] = true
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Validate checks referential sanity: non-empty fields and hierarchy
// presence of claimed values is NOT required (values may be out-of-tree),
// but empty identifiers are rejected.
func (d *Dataset) Validate() error {
	for i, r := range d.Records {
		if r.Object == "" || r.Source == "" || r.Value == "" {
			return fmt.Errorf("data: record %d has empty field: %+v", i, r)
		}
	}
	for i, a := range d.Answers {
		if a.Object == "" || a.Worker == "" || a.Value == "" {
			return fmt.Errorf("data: answer %d has empty field: %+v", i, a)
		}
	}
	for o, vals := range d.Candidates {
		if o == "" {
			return fmt.Errorf("data: candidate seed with empty object")
		}
		for _, v := range vals {
			if v == "" {
				return fmt.Errorf("data: candidate seed for %q has empty value", o)
			}
		}
	}
	if d.H != nil {
		if err := d.H.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Scale returns a dataset duplicated k times (objects, sources and workers
// renamed per copy, every other field carried as Clone carries it), used by
// the paper's Figure 13 scalability experiment.
func (d *Dataset) Scale(k int) *Dataset {
	if k <= 1 {
		return d.Clone()
	}
	out := &Dataset{
		Name:    fmt.Sprintf("%s-x%d", d.Name, k),
		Truth:   map[string]string{},
		Domains: map[string]string{},
		H:       d.H,
	}
	if d.Candidates != nil {
		out.Candidates = make(map[string][]string, k*len(d.Candidates))
	}
	for i := 0; i < k; i++ {
		suf := fmt.Sprintf("#%d", i)
		for _, r := range d.Records {
			out.Records = append(out.Records, Record{r.Object + suf, r.Source + suf, r.Value})
		}
		for _, a := range d.Answers {
			a.Object, a.Worker = a.Object+suf, a.Worker+suf
			out.Answers = append(out.Answers, a)
		}
		for o, vals := range d.Candidates {
			out.Candidates[o+suf] = append([]string(nil), vals...)
		}
		for o, t := range d.Truth {
			out.Truth[o+suf] = t
		}
		for o, dom := range d.Domains {
			out.Domains[o+suf] = dom
		}
	}
	return out
}
