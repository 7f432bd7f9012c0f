// Package eventlog provides the typed, versioned, durable event log of an
// open-world campaign — the generalization of the repo's original
// answers-only log (the since-absorbed internal/answerlog) from
// "append-only answer log" to "append-only dataset-mutation log". One JSON
// event per line, fsync'd (group-committed) before the append returns;
// replaying the log over the campaign's seed dataset reconstructs every
// acknowledged answer AND every acknowledged dataset mutation, which is
// what lets a campaign keep growing (new objects, new source records)
// while workers answer, and survive a kill -9 with zero acknowledged loss.
//
// Wire format. Each line is one Event:
//
//	{"type":"answer","v":1,"object":"o","worker":"w","value":"x"}
//	{"type":"answer","v":2,"object":"o","worker":"w","value":"a","values":["a","b"]}
//	{"type":"answer","v":2,"object":"o","worker":"w","value":"1.5","num":1.5}
//	{"type":"add_object","v":2,"object":"o","candidates":["a","b"]}
//	{"type":"add_record","v":2,"object":"o","source":"s","value":"x"}
//
// Version 2 adds the optional typed answer payloads of non-categorical
// truth models: "values" (a multi-truth answer SET) and "num" (a numeric
// answer). A plain single-truth answer is still written as v1, so answer
// lines of categorical campaigns are byte-identical to what earlier builds
// wrote; answers with a typed payload and both mutations are written at
// v2. Mutation lines written at v1 by earlier builds still replay.
//
// Lines are encoded and decoded by hand (internal/wire), not by
// encoding/json, with the same bytes and the same accepted inputs:
// FuzzEventLine checks both against encoding/json.
//
// Legacy compatibility: a bare answerlog line — {"object","worker","value"}
// with no "type" — replays as an answer, so a pre-existing answers.jsonl is
// upgraded in place simply by appending typed events after it. Unknown
// types and versions newer than Version are skipped (and counted) on
// replay, never failing recovery: a log written by a newer build must not
// strand an older reader's campaign.
package eventlog

import (
	"fmt"
	"strconv"

	"repro/internal/data"
	"repro/internal/wire"
)

// Version is the newest event format version this build writes and
// understands. Version 0 (implied by a missing "v" field) is the legacy
// bare-answer line; version 2 added typed answer payloads (values, num).
const Version = 2

// Type discriminates events. The empty string marks a legacy bare answer
// line (version 0), which predates the "type" field.
type Type string

const (
	TypeAnswer    Type = "answer"
	TypeAddObject Type = "add_object"
	TypeAddRecord Type = "add_record"
)

// Event is one durable campaign event. Payload fields are inlined rather
// than nested so that a legacy answer line IS a valid Event — the whole
// legacy log format is a subset of this one.
type Event struct {
	Type Type `json:"type,omitempty"`
	V    int  `json:"v,omitempty"`

	Object string `json:"object,omitempty"`
	Worker string `json:"worker,omitempty"` // answer
	Source string `json:"source,omitempty"` // add_record
	Value  string `json:"value,omitempty"`  // answer, add_record
	// Values is a multi-truth answer's full value set (answer, v2).
	Values []string `json:"values,omitempty"`
	// Num is a numeric answer's typed payload (answer, v2).
	Num *float64 `json:"num,omitempty"`
	// Candidates seeds an added object's candidate value set (add_object).
	Candidates []string `json:"candidates,omitempty"`
}

// AnswerEvent wraps a crowd answer as a typed event. A plain single-truth
// answer is emitted at v1 — byte-identical to what earlier builds wrote —
// and only answers carrying a typed payload use v2.
func AnswerEvent(a data.Answer) Event {
	e := Event{Type: TypeAnswer, V: 1, Object: a.Object, Worker: a.Worker, Value: a.Value}
	if len(a.Values) > 0 || a.Num != nil {
		e.V = Version
		e.Values = a.Values
		e.Num = a.Num
	}
	return e
}

// AddObjectEvent declares a new object with seeded candidate values.
func AddObjectEvent(object string, candidates []string) Event {
	return Event{Type: TypeAddObject, V: Version, Object: object, Candidates: candidates}
}

// AddRecordEvent wraps a new source record as a typed event.
func AddRecordEvent(r data.Record) Event {
	return Event{Type: TypeAddRecord, V: Version, Object: r.Object, Source: r.Source, Value: r.Value}
}

// Validate checks the event is well-formed for appending. Replay uses the
// same rules to classify lines (invalid lines are skipped, not fatal).
func (e Event) Validate() error {
	switch e.Type {
	case TypeAnswer, "":
		if e.Object == "" || e.Worker == "" || (e.Value == "" && len(e.Values) == 0) {
			return fmt.Errorf("eventlog: answer event with empty field")
		}
		for _, v := range e.Values {
			if v == "" {
				return fmt.Errorf("eventlog: answer event with empty value in set")
			}
		}
	case TypeAddObject:
		if e.Object == "" || len(e.Candidates) == 0 {
			return fmt.Errorf("eventlog: add_object event needs an object and candidates")
		}
		for _, c := range e.Candidates {
			if c == "" {
				return fmt.Errorf("eventlog: add_object event with empty candidate")
			}
		}
	case TypeAddRecord:
		if e.Object == "" || e.Source == "" || e.Value == "" {
			return fmt.Errorf("eventlog: add_record event with empty field")
		}
	default:
		return fmt.Errorf("eventlog: unknown event type %q", e.Type)
	}
	if e.V > Version {
		return fmt.Errorf("eventlog: event version %d newer than %d", e.V, Version)
	}
	return nil
}

// Answer extracts the answer payload of an answer (or legacy) event. A v2
// event with a value set but no canonical Value backfills it from the set's
// first element, so downstream single-truth consumers always see one claim.
func (e Event) Answer() data.Answer {
	a := data.Answer{Object: e.Object, Worker: e.Worker, Value: e.Value, Values: e.Values, Num: e.Num}
	if a.Value == "" && len(a.Values) > 0 {
		a.Value = a.Values[0]
	}
	return a
}

// Record extracts the record payload of an add_record event.
func (e Event) Record() data.Record {
	return data.Record{Object: e.Object, Source: e.Source, Value: e.Value}
}

// eventFields are Event's JSON keys in field order.
var eventFields = []string{"type", "v", "object", "worker", "source", "value", "values", "num", "candidates"}

// appendJSON appends e as one compact JSON object, byte-identical to
// json.Marshal(e): fields in declaration order, empty ones omitted. A NaN
// or infinite Num is an error.
func (e *Event) appendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, '{')
	member := func(b []byte, key string) []byte {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, key...)
		return append(b, '"', ':')
	}
	str := func(b []byte, key, v string) []byte {
		if v == "" {
			return b
		}
		return wire.AppendString(member(b, key), v)
	}
	list := func(b []byte, key string, vs []string) []byte {
		if len(vs) == 0 {
			return b
		}
		b = append(member(b, key), '[')
		for i, v := range vs {
			if i > 0 {
				b = append(b, ',')
			}
			b = wire.AppendString(b, v)
		}
		return append(b, ']')
	}
	b = str(b, "type", string(e.Type))
	if e.V != 0 {
		b = strconv.AppendInt(member(b, "v"), int64(e.V), 10)
	}
	b = str(b, "object", e.Object)
	b = str(b, "worker", e.Worker)
	b = str(b, "source", e.Source)
	b = str(b, "value", e.Value)
	b = list(b, "values", e.Values)
	if e.Num != nil {
		var err error
		if b, err = wire.AppendFloat(member(b, "num"), *e.Num); err != nil {
			return nil, fmt.Errorf("eventlog: num: %w", err)
		}
	}
	b = list(b, "candidates", e.Candidates)
	return append(b, '}'), nil
}

// decodeLine decodes one log line into e with json.Unmarshal's semantics
// for Event: case-folded keys, unknown keys skipped, null a no-op for
// strings and nil for slices and pointers, later duplicate keys winning,
// "v" only as an integer literal, and nothing but whitespace after the
// object. l is reused across lines for its scratch buffer.
func (e *Event) decodeLine(l *wire.Lexer, line []byte) error {
	l.Reset(line)
	if !l.Null() && l.BeginObject() {
		for {
			key, ok := l.Member()
			if !ok {
				break
			}
			switch wire.Field(key, eventFields) {
			case 0:
				l.Str((*string)(&e.Type))
			case 1:
				if !l.Null() {
					e.V = l.Int()
				}
			case 2:
				l.Str(&e.Object)
			case 3:
				l.Str(&e.Worker)
			case 4:
				l.Str(&e.Source)
			case 5:
				l.Str(&e.Value)
			case 6:
				e.Values = wire.Slice(l, e.Values, (*wire.Lexer).Str)
			case 7:
				if l.Null() {
					e.Num = nil
				} else {
					f := l.Float()
					e.Num = &f
				}
			case 8:
				e.Candidates = wire.Slice(l, e.Candidates, (*wire.Lexer).Str)
			default:
				l.Skip()
			}
		}
	}
	l.End()
	return l.Err()
}
