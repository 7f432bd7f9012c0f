package eventlog

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// FuzzEventLine checks the line codec against encoding/json, the
// reference it replaces: decodeLine accepts exactly the lines json.Unmarshal
// accepts into an Event and yields a reflect.DeepEqual event, and
// appendJSON re-encodes it to json.Marshal's bytes. The seed corpus
// (testdata/fuzz/FuzzEventLine) holds every line version, key-case
// variants, nulls, duplicate keys, escapes, lone surrogates, invalid UTF-8,
// non-integer "v" and out-of-range "num".
func FuzzEventLine(f *testing.F) {
	var l wire.Lexer
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want Event
		gerr := got.decodeLine(&l, line)
		werr := json.Unmarshal(line, &want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("decodeLine error %v, json.Unmarshal error %v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeLine = %#v\njson.Unmarshal = %#v", got, want)
		}
		enc, err := got.appendJSON(nil)
		ref, rerr := json.Marshal(want)
		if (err == nil) != (rerr == nil) || err == nil && !bytes.Equal(enc, ref) {
			t.Fatalf("appendJSON = %q (%v)\njson.Marshal = %q (%v)", enc, err, ref, rerr)
		}
	})
}
