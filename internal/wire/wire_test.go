package wire

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestAppendMatchesEncodingJSON: AppendString and AppendFloat write the
// bytes json.Marshal writes for a string and a float64.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", "\"\\/", "\b\f\n\r\t", "\x00\x01\x1f\x7f", "<a&b>",
		"\u2028\u2029", "é😀", "\xff\xfe", "\xed\xa0\x80", "\xf0\x9f\x98", "a\xc3",
	} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 0.1, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, -1e21,
		123456789, 1.5e300, 5e-324, math.MaxFloat64, -2.5,
	} {
		want, _ := json.Marshal(f)
		got, err := AppendFloat(nil, f)
		if err != nil || string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, %v; want %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err != ErrNonFinite {
			t.Errorf("AppendFloat(%v) error %v, want ErrNonFinite", f, err)
		}
	}
}

// TestSkipDepthLimit: a skipped value nests at most as deep as
// encoding/json allows, counting the enclosing object.
func TestSkipDepthLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		in := `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		var l Lexer
		l.Reset([]byte(in))
		l.Skip()
		l.End()
		if got, want := l.Err() == nil, json.Valid([]byte(in)); got != want {
			t.Errorf("depth %d: lexer ok %v, encoding/json ok %v", depth+1, got, want)
		}
	}
}
