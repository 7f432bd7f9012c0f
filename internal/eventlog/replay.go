package eventlog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/data"
	"repro/internal/wire"
)

// ReplayResult reports what a Replay recovered.
type ReplayResult struct {
	Answers    int `json:"answers"`           // valid answers recovered (typed or legacy lines)
	Records    int `json:"records,omitempty"` // add_record events applied
	Objects    int `json:"objects,omitempty"` // add_object events applied
	Skipped    int `json:"skipped"`           // malformed / unknown-type / future-version / over-long lines
	Duplicates int `json:"duplicates"`        // duplicate answers, records and no-op object adds dropped
}

// Replay reads an event log and folds the recovered events into ds, in log
// order: answers append to ds.Answers, add_record events to ds.Records, and
// add_object events merge into ds.Candidates. Malformed lines — a torn
// write from a crash mid-append can only be the last line, but any
// malformed line is tolerated — are counted and skipped rather than failing
// the whole recovery, as are events of unknown type or a newer version.
//
// Dedup mirrors what the live ingest path enforces: duplicate (worker,
// object) answers and duplicate (object, source) records — whether repeated
// within the log or already present in the dataset — are dropped and
// counted, so a replayed event can never be double-counted by inference.
// add_object events are idempotent: candidates merge set-wise, and an event
// contributing nothing new counts as a duplicate.
func Replay(path string, ds *data.Dataset) (ReplayResult, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return ReplayResult{}, nil // no log yet: empty campaign
		}
		return ReplayResult{}, fmt.Errorf("eventlog: %w", err)
	}
	defer f.Close()
	return ReplayFrom(f, ds)
}

// maxLineBytes bounds how much of a single log line recovery buffers. No
// valid event comes close; a longer line is corruption and is skipped like
// any other malformed line.
const maxLineBytes = 1 << 20

// ReplayFrom is Replay over any reader (exposed for tests and piping).
func ReplayFrom(r io.Reader, ds *data.Dataset) (ReplayResult, error) {
	var res ReplayResult
	ap := newApplier(ds)
	br := bufio.NewReaderSize(r, 64*1024)
	scratch := make([]byte, 0, 64*1024)
	var lex wire.Lexer
	for {
		line, tooLong, err := scanLine(br, scratch[:0])
		scratch = line
		if tooLong {
			// One over-long (corrupt) line must not strand the rest of the
			// campaign's events behind a failed recovery.
			res.Skipped++
		} else if len(line) > 0 {
			var e Event
			if derr := e.decodeLine(&lex, line); derr != nil || e.Validate() != nil {
				res.Skipped++
			} else {
				ap.apply(e, &res)
			}
		}
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, fmt.Errorf("eventlog: scan: %w", err)
		}
	}
}

// applier folds validated events into a dataset with ingest-equivalent
// dedup.
type applier struct {
	ds         *data.Dataset
	seenAnswer map[[2]string]bool // (worker, object)
	seenRecord map[[2]string]bool // (object, source)
}

func newApplier(ds *data.Dataset) *applier {
	ap := &applier{
		ds:         ds,
		seenAnswer: make(map[[2]string]bool, len(ds.Answers)),
		seenRecord: make(map[[2]string]bool, len(ds.Records)),
	}
	for _, a := range ds.Answers {
		ap.seenAnswer[[2]string{a.Worker, a.Object}] = true
	}
	for _, r := range ds.Records {
		ap.seenRecord[[2]string{r.Object, r.Source}] = true
	}
	return ap
}

func (ap *applier) apply(e Event, res *ReplayResult) {
	switch e.Type {
	case TypeAnswer, "":
		k := [2]string{e.Worker, e.Object}
		if ap.seenAnswer[k] {
			res.Duplicates++
			return
		}
		ap.seenAnswer[k] = true
		ap.ds.Answers = append(ap.ds.Answers, e.Answer())
		res.Answers++
	case TypeAddRecord:
		k := [2]string{e.Object, e.Source}
		if ap.seenRecord[k] {
			res.Duplicates++
			return
		}
		ap.seenRecord[k] = true
		ap.ds.Records = append(ap.ds.Records, e.Record())
		res.Records++
	case TypeAddObject:
		have := make(map[string]bool, len(ap.ds.Candidates[e.Object]))
		for _, v := range ap.ds.Candidates[e.Object] {
			have[v] = true
		}
		added := false
		for _, v := range e.Candidates {
			if !have[v] {
				have[v] = true
				if ap.ds.Candidates == nil {
					ap.ds.Candidates = map[string][]string{}
				}
				ap.ds.Candidates[e.Object] = append(ap.ds.Candidates[e.Object], v)
				added = true
			}
		}
		if added {
			res.Objects++
		} else {
			res.Duplicates++
		}
	}
}

// scanLine reads the next line into buf (reused across calls) without the
// trailing newline. A line longer than maxLineBytes is consumed to its
// terminator and reported with tooLong=true and an empty buf, so callers
// can skip-and-count it instead of aborting the whole replay. The final
// unterminated line, if any, is returned together with io.EOF.
func scanLine(br *bufio.Reader, buf []byte) (line []byte, tooLong bool, err error) {
	for {
		chunk, err := br.ReadSlice('\n')
		if !tooLong {
			buf = append(buf, chunk...)
			if len(buf) > maxLineBytes {
				tooLong = true
				buf = buf[:0]
			}
		}
		switch err {
		case bufio.ErrBufferFull:
			continue // line spans internal buffers; keep accumulating
		case nil:
			if n := len(buf); n > 0 && buf[n-1] == '\n' {
				buf = buf[:n-1]
			}
			return buf, tooLong, nil
		default:
			return buf, tooLong, err
		}
	}
}
