package eventlog

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"repro/internal/data"
)

var errClosed = errors.New("eventlog: closed")

// Log is an append-only JSONL event log with group commit: a single flusher
// goroutine gathers every append that arrives while the previous fsync is
// in flight and commits the whole batch with one write + one fsync,
// acknowledging each append only after its batch is on stable storage:
// durability per event, fsync cost amortized across concurrent appenders.
// Append is safe for concurrent use.
type Log struct {
	path string
	f    *os.File      // written and synced only by the flusher after Open
	kick chan struct{} // wakes the flusher; buffered, never closed
	quit chan struct{} // closed by Close after the last append is enqueued
	done chan struct{} // closed when the flusher has drained and exited
	torn bool          // flusher-owned: a failed write left unterminated bytes

	metrics *Metrics     // nil when the log is opened without WithMetrics
	log     *slog.Logger // never nil; discards unless WithLogger is given

	mu      sync.Mutex
	closed  bool
	pending []byte       // marshaled lines awaiting the next group commit
	waiters []chan error // one ack per pending append
	n       int
}

// Open opens (or creates) the log at path in append mode and starts the
// flusher. An existing legacy answers.jsonl is a valid event log: new typed
// events are appended after the bare answer lines and both replay together.
func Open(path string, opts ...Option) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	l := &Log{
		path: path,
		f:    f,
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		log:  slog.New(slog.DiscardHandler),
	}
	for _, opt := range opts {
		opt(l)
	}
	go l.flushLoop()
	return l, nil
}

// AppendEvent stages one event for the next group commit and blocks until
// it is synced to stable storage (or the commit fails).
//
//tdh:wallclock append latency is an observability histogram; replay never reads it
func (l *Log) AppendEvent(e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	var line [512]byte // room for a typical line; a longer one grows onto the heap
	buf, err := e.appendJSON(line[:0])
	if err != nil {
		return err
	}
	start := time.Now()
	ack := make(chan error, 1)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	l.pending = append(l.pending, buf...)
	l.pending = append(l.pending, '\n')
	l.waiters = append(l.waiters, ack)
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default: // a wakeup is already queued; the flusher will see this entry
	}
	err = <-ack
	l.metrics.observeAppend(start)
	return err
}

// Append durably stores one crowd answer (the server's EventSink).
func (l *Log) Append(a data.Answer) error { return l.AppendEvent(AnswerEvent(a)) }

// AppendAddObject durably stores an object addition (the server's
// EventSink).
func (l *Log) AppendAddObject(object string, candidates []string) error {
	return l.AppendEvent(AddObjectEvent(object, candidates))
}

// AppendAddRecord durably stores a record addition (the server's
// EventSink).
func (l *Log) AppendAddRecord(r data.Record) error {
	return l.AppendEvent(AddRecordEvent(r))
}

// flushLoop is the single flusher goroutine: each wakeup commits the entire
// pending batch with one write + one fsync and acknowledges every waiter.
func (l *Log) flushLoop() {
	defer close(l.done)
	for {
		select {
		case <-l.kick:
			l.commit()
		case <-l.quit:
			l.commit()
			return
		}
	}
}

// commit swaps out the staged batch and syncs it to disk, then wakes the
// waiters with the outcome. File I/O runs outside the stage lock so
// appenders keep staging the next batch during the fsync.
//
//tdh:wallclock commit latency is an observability histogram; replay never reads it
func (l *Log) commit() {
	l.mu.Lock()
	buf, waiters := l.pending, l.waiters
	l.pending, l.waiters = nil, nil
	l.mu.Unlock()
	if len(waiters) == 0 {
		return
	}
	start := time.Now()
	if l.torn {
		// A previous batch's failed write left unterminated bytes in the
		// file. Terminate them so they replay as one skipped malformed line
		// instead of merging with (and swallowing) this batch's first line.
		buf = append([]byte{'\n'}, buf...)
	}
	var err error
	if n, werr := l.f.Write(buf); werr != nil {
		err = fmt.Errorf("eventlog: write: %w", werr)
		l.torn = n > 0 && buf[n-1] != '\n'
	} else if serr := l.f.Sync(); serr != nil {
		err = fmt.Errorf("eventlog: sync: %w", serr)
		l.torn = false // fully written and newline-terminated, just not synced
	} else {
		l.torn = false
	}
	if err == nil {
		l.mu.Lock()
		l.n += len(waiters)
		l.mu.Unlock()
		l.metrics.observeCommit(start, len(waiters), len(buf))
		if d := time.Since(start); d >= slowCommitAfter {
			l.log.Warn("slow event log commit",
				"path", l.path, "duration_ms", d.Milliseconds(),
				"batch", len(waiters), "bytes", len(buf))
		}
	} else {
		l.log.Error("event log commit failed",
			"path", l.path, "batch", len(waiters), "err", err)
	}
	for _, ack := range waiters {
		ack <- err
	}
}

// slowCommitAfter is the group-commit duration that triggers the slow-fsync
// warning: a healthy fsync is single-digit milliseconds, so a quarter
// second means the disk (or its queue) is in trouble.
const slowCommitAfter = 250 * time.Millisecond

// Count returns the number of events committed through this handle.
func (l *Log) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Close commits any staged events, stops the flusher and closes the file;
// further appends fail. Appends that were already staged are synced and
// acknowledged normally.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done // a concurrent Close wins; wait for its drain
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.done
	return l.f.Close()
}
