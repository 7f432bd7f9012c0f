package eventlog

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
)

// TestAppendGolden pins the exact line AppendEvent writes for each event
// constructor, as the encoding/json writer emitted it: the plain answer at
// v1, the typed payloads and both mutations at v2, with every string escape
// class in play.
func TestAppendGolden(t *testing.T) {
	num := 1e-7
	cases := []struct {
		e    Event
		want string
	}{
		{AnswerEvent(data.Answer{Object: "o<1>", Worker: "w&\"", Value: "x\u2028\n"}),
			`{"type":"answer","v":1,"object":"o\u003c1\u003e","worker":"w\u0026\"","value":"x\u2028\n"}`},
		{AnswerEvent(data.Answer{Object: "o", Worker: "w", Value: "a", Values: []string{"a", "b\\", "\x01\xff"}}),
			`{"type":"answer","v":2,"object":"o","worker":"w","value":"a","values":["a","b\\","\u0001\ufffd"]}`},
		{AnswerEvent(data.Answer{Object: "o", Worker: "w", Value: "1e-07", Num: &num}),
			`{"type":"answer","v":2,"object":"o","worker":"w","value":"1e-07","num":1e-7}`},
		{AddObjectEvent("o\t", []string{"a", "é😀", "\u2029"}),
			`{"type":"add_object","v":2,"object":"o\t","candidates":["a","é😀","\u2029"]}`},
		{AddRecordEvent(data.Record{Object: "o", Source: "s\b\f\r", Value: "x>"}),
			`{"type":"add_record","v":2,"object":"o","source":"s\b\f\r","value":"x\u003e"}`},
	}
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, c := range cases {
		if err := l.AppendEvent(c.e); err != nil {
			t.Fatal(err)
		}
		want = append(want, c.want+"\n")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != strings.Join(want, "") {
		t.Fatalf("log bytes:\n%s\nwant:\n%s", got, strings.Join(want, ""))
	}
}

// TestAppendRejectsNonFinite: a numeric answer of NaN or ±Inf has no JSON
// form, so AppendEvent refuses it and writes nothing.
func TestAppendRejectsNonFinite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := l.Append(data.Answer{Object: "o", Worker: "w", Value: "v", Num: &f}); err == nil {
			t.Errorf("AppendEvent accepted num %v", f)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("log after rejected appends: %v, %v", fi, err)
	}
}
