package data

import (
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"

	"repro/internal/hierarchy"
	"repro/internal/wire"
)

// The dataset file is one JSON object, indented by one space per level:
//
//	{"name": ..., "root": ..., "edges": [[node, parent], ...],
//	 "records": [...], "answers": [...], "truth": {object: value},
//	 "domains": {...}, "candidates": {object: [value, ...]}}
//
// The hierarchy is flattened to (node, parent) edges so the format is
// diff-friendly and stable; domains and candidates are omitted when empty,
// an answer's values and num likewise. Write emits the bytes encoding/json
// emits for that shape, and Decode reads what encoding/json would read
// (io_ref_test.go holds the reflection reference both are checked against).

var (
	datasetFields = []string{"name", "root", "edges", "records", "answers", "truth", "domains", "candidates"}
	recordFields  = []string{"object", "source", "value"}
	answerFields  = []string{"object", "worker", "value", "values", "num"}
)

// Write serializes the dataset as indented JSON to w. A numeric answer
// that is NaN or infinite is an error, and then nothing is written.
func Write(w io.Writer, ds *Dataset) error {
	for _, a := range ds.Answers {
		if a.Num != nil && (math.IsNaN(*a.Num) || math.IsInf(*a.Num, 0)) {
			return fmt.Errorf("data: answer %s/%s: %w", a.Object, a.Worker, wire.ErrNonFinite)
		}
	}
	e := writer{w: w, b: make([]byte, 0, 64<<10)}
	e.b = append(e.b, "{\n \"name\": "...)
	e.b = wire.AppendString(e.b, ds.Name)
	e.b = append(e.b, ",\n \"root\": "...)
	var root string
	if ds.H != nil {
		root = ds.H.Root()
	}
	e.b = wire.AppendString(e.b, root)
	e.b = append(e.b, ",\n \"edges\": "...)
	e.edges(ds.H)
	e.b = append(e.b, ",\n \"records\": "...)
	e.records(ds.Records)
	e.b = append(e.b, ",\n \"answers\": "...)
	e.answers(ds.Answers)
	e.b = append(e.b, ",\n \"truth\": "...)
	e.stringMap(ds.Truth)
	if len(ds.Domains) > 0 {
		e.b = append(e.b, ",\n \"domains\": "...)
		e.stringMap(ds.Domains)
	}
	if len(ds.Candidates) > 0 {
		e.b = append(e.b, ",\n \"candidates\": "...)
		e.candidates(ds.Candidates)
	}
	e.b = append(e.b, "\n}\n"...)
	e.flush()
	return e.err
}

// writer streams the encoding through a buffer it flushes at flushAt.
type writer struct {
	w   io.Writer
	b   []byte
	err error
}

const flushAt = 60 << 10

func (e *writer) flush() {
	if e.err == nil && len(e.b) > 0 {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

func (e *writer) maybeFlush() {
	if len(e.b) >= flushAt {
		e.flush()
	}
}

// open begins element i of a non-empty container whose elements sit at
// indent level n: the opener c before the first element, a comma before
// any later one, then a newline and the indent.
func (e *writer) open(c byte, i, n int) {
	if i == 0 {
		e.b = append(e.b, c)
	} else {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '\n')
	e.b = append(e.b, indent[:n]...)
}

func (e *writer) close(c byte, n int) {
	e.b = append(e.b, '\n')
	e.b = append(e.b, indent[:n]...)
	e.b = append(e.b, c)
}

// indent is enough one-space levels for the deepest value (an answer's
// values at level 4).
const indent = "    "

func (e *writer) edges(h *hierarchy.Tree) {
	n := 0
	if h != nil {
		for _, v := range slices.Sorted(slices.Values(h.Nodes())) {
			p, ok := h.Parent(v)
			if !ok {
				continue
			}
			e.open('[', n, 2)
			e.b = append(e.b, "[\n   "...)
			e.b = wire.AppendString(e.b, v)
			e.b = append(e.b, ",\n   "...)
			e.b = wire.AppendString(e.b, p)
			e.b = append(e.b, "\n  ]"...)
			n++
			e.maybeFlush()
		}
	}
	if n == 0 {
		e.b = append(e.b, "null"...)
		return
	}
	e.close(']', 1)
}

func (e *writer) records(rs []Record) {
	switch {
	case rs == nil:
		e.b = append(e.b, "null"...)
		return
	case len(rs) == 0:
		e.b = append(e.b, "[]"...)
		return
	}
	for i, r := range rs {
		e.open('[', i, 2)
		e.b = append(e.b, "{\n   \"object\": "...)
		e.b = wire.AppendString(e.b, r.Object)
		e.b = append(e.b, ",\n   \"source\": "...)
		e.b = wire.AppendString(e.b, r.Source)
		e.b = append(e.b, ",\n   \"value\": "...)
		e.b = wire.AppendString(e.b, r.Value)
		e.b = append(e.b, "\n  }"...)
		e.maybeFlush()
	}
	e.close(']', 1)
}

func (e *writer) answers(as []Answer) {
	switch {
	case as == nil:
		e.b = append(e.b, "null"...)
		return
	case len(as) == 0:
		e.b = append(e.b, "[]"...)
		return
	}
	for i, a := range as {
		e.open('[', i, 2)
		e.b = append(e.b, "{\n   \"object\": "...)
		e.b = wire.AppendString(e.b, a.Object)
		e.b = append(e.b, ",\n   \"worker\": "...)
		e.b = wire.AppendString(e.b, a.Worker)
		e.b = append(e.b, ",\n   \"value\": "...)
		e.b = wire.AppendString(e.b, a.Value)
		if len(a.Values) > 0 {
			e.b = append(e.b, ",\n   \"values\": "...)
			e.strings(a.Values, 4)
		}
		if a.Num != nil {
			e.b = append(e.b, ",\n   \"num\": "...)
			e.b, _ = wire.AppendFloat(e.b, *a.Num) // finite: Write checked
		}
		e.b = append(e.b, "\n  }"...)
		e.maybeFlush()
	}
	e.close(']', 1)
}

// strings writes a string list whose elements sit at indent level n.
func (e *writer) strings(vs []string, n int) {
	switch {
	case vs == nil:
		e.b = append(e.b, "null"...)
		return
	case len(vs) == 0:
		e.b = append(e.b, "[]"...)
		return
	}
	for i, v := range vs {
		e.open('[', i, n)
		e.b = wire.AppendString(e.b, v)
	}
	e.close(']', n-1)
}

func (e *writer) stringMap(m map[string]string) {
	switch {
	case m == nil:
		e.b = append(e.b, "null"...)
		return
	case len(m) == 0:
		e.b = append(e.b, "{}"...)
		return
	}
	for i, k := range slices.Sorted(maps.Keys(m)) {
		e.open('{', i, 2)
		e.b = wire.AppendString(e.b, k)
		e.b = append(e.b, ": "...)
		e.b = wire.AppendString(e.b, m[k])
		e.maybeFlush()
	}
	e.close('}', 1)
}

func (e *writer) candidates(m map[string][]string) {
	for i, k := range slices.Sorted(maps.Keys(m)) {
		e.open('{', i, 2)
		e.b = wire.AppendString(e.b, k)
		e.b = append(e.b, ": "...)
		e.strings(m[k], 3)
		e.maybeFlush()
	}
	e.close('}', 1)
}

// Decode parses a dataset from the first JSON value in buf; bytes after it
// are ignored. Every string is copied out, so buf is not retained.
func Decode(buf []byte) (*Dataset, error) {
	var (
		l     wire.Lexer
		ds    Dataset
		root  string
		edges [][2]string
	)
	l.Reset(buf)
	if !l.Null() && l.BeginObject() {
		for {
			key, ok := l.Member()
			if !ok {
				break
			}
			switch wire.Field(key, datasetFields) {
			case 0:
				l.Str(&ds.Name)
			case 1:
				l.Str(&root)
			case 2:
				edges = wire.Slice(&l, edges, decodeEdge)
			case 3:
				ds.Records = wire.Slice(&l, ds.Records, decodeRecord)
			case 4:
				ds.Answers = wire.Slice(&l, ds.Answers, decodeAnswer)
			case 5:
				ds.Truth = wire.Map(&l, ds.Truth, decodeString)
			case 6:
				ds.Domains = wire.Map(&l, ds.Domains, decodeString)
			case 7:
				ds.Candidates = wire.Map(&l, ds.Candidates, decodeStrings)
			default:
				l.Skip()
			}
		}
	}
	if err := l.Err(); err != nil {
		return nil, fmt.Errorf("data: decode: %w", err)
	}
	return assemble(&ds, root, edges)
}

// assemble finishes a decoded dataset: an absent truth map becomes empty,
// the hierarchy is rebuilt from its edges, and the result is validated.
func assemble(ds *Dataset, root string, edges [][2]string) (*Dataset, error) {
	if ds.Truth == nil {
		ds.Truth = map[string]string{}
	}
	if root != "" {
		t := hierarchy.New(root)
		// Edges may arrive in any order; insert breadth-wise until fixpoint,
		// filtering edges in place.
		pending := edges
		for len(pending) > 0 {
			next := pending[:0]
			progressed := false
			for _, e := range pending {
				if t.Contains(e[1]) {
					if err := t.Add(e[0], e[1]); err != nil {
						return nil, err
					}
					progressed = true
				} else {
					next = append(next, e)
				}
			}
			if !progressed {
				return nil, fmt.Errorf("data: hierarchy edges contain orphan nodes (%d left)", len(next))
			}
			pending = next
		}
		t.Freeze()
		ds.H = t
	}
	return ds, ds.Validate()
}

// decodeEdge decodes a [node, parent] pair the way encoding/json fills a
// [2]string: missing elements are zeroed, extra ones skipped.
func decodeEdge(l *wire.Lexer, e *[2]string) {
	if l.Null() || !l.BeginArray() {
		return
	}
	i := 0
	for ; l.Elem(); i++ {
		if i < len(e) {
			l.Str(&e[i])
		} else {
			l.Skip()
		}
	}
	for ; i < len(e); i++ {
		e[i] = ""
	}
}

func decodeRecord(l *wire.Lexer, r *Record) {
	if l.Null() || !l.BeginObject() {
		return
	}
	for {
		key, ok := l.Member()
		if !ok {
			return
		}
		switch wire.Field(key, recordFields) {
		case 0:
			l.Str(&r.Object)
		case 1:
			l.Str(&r.Source)
		case 2:
			l.Str(&r.Value)
		default:
			l.Skip()
		}
	}
}

func decodeAnswer(l *wire.Lexer, a *Answer) {
	if l.Null() || !l.BeginObject() {
		return
	}
	for {
		key, ok := l.Member()
		if !ok {
			return
		}
		switch wire.Field(key, answerFields) {
		case 0:
			l.Str(&a.Object)
		case 1:
			l.Str(&a.Worker)
		case 2:
			l.Str(&a.Value)
		case 3:
			a.Values = wire.Slice(l, a.Values, (*wire.Lexer).Str)
		case 4:
			if l.Null() {
				a.Num = nil
			} else {
				f := l.Float()
				a.Num = &f
			}
		default:
			l.Skip()
		}
	}
}

func decodeString(l *wire.Lexer) string {
	var s string
	l.Str(&s)
	return s
}

func decodeStrings(l *wire.Lexer) []string {
	return wire.Slice(l, nil, (*wire.Lexer).Str)
}

// SaveFile writes the dataset to path atomically: it writes a temporary
// file beside it, syncs it and renames it over path, so a crash leaves the
// previous file or the new one, never a torn one. On error the previous
// file is untouched and the temporary file removed.
func SaveFile(path string, ds *Dataset) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	err = Write(f, ds)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: the error being returned is the one that matters
	}
	return err
}

// LoadFile reads a dataset from path.
func LoadFile(path string) (*Dataset, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(buf)
}
