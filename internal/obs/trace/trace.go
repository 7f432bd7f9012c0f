// Package trace is the stdlib-only request-scoped tracing subsystem behind
// GET /trace: a span recorder that follows one answer (or dataset
// mutation) from HTTP accept through shard queue → fold → publish, and a
// fixed-size lock-free ring buffer of completed traces the debug endpoints
// read back as span trees.
//
// Design constraints, in order:
//
//   - Recording must be safe next to the server's hot paths: watermark and
//     sequence accounting are always-on and live elsewhere (they are plain
//     atomics); full span capture is sampled, and an unsampled request costs
//     one counter increment and carries a nil *Active whose methods are
//     no-ops. A sampled request allocates once (the Active and its span
//     backing array) at accept time, never per span.
//   - Completed traces go into a bounded ring: concurrent publishers may
//     overwrite each other's slots under contention — traces are droppable
//     diagnostics — but a reader never sees a torn trace, because each slot
//     is a single atomic pointer swap of an immutable value.
//   - The HTTP boundary speaks W3C trace context (the `traceparent` header,
//     version 00), so an external caller can correlate its request with the
//     server's span tree. Malformed or foreign headers are ignored and a
//     fresh root trace is started — propagation is best-effort by design,
//     never a 4xx.
//
// Ownership protocol: an *Active is owned by exactly one goroutine at a
// time. The HTTP handler creates it, records the accept span, and hands it
// to the pipeline through the ingest queue; the pipeline coordinator records
// the stage spans and calls Finish, which publishes the immutable Trace into
// the ring. No lock is needed because ownership transfers happen-before via
// the channel send.
package trace

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace id (all-zero = invalid).
type TraceID [16]byte

// SpanID is the 8-byte W3C span id (all-zero = invalid / no parent).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 32-char lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// FlagSampled is the W3C trace-flags bit requesting full span capture.
const FlagSampled = 0x01

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex trace id>-<16 hex span id>-<2 hex flags>"). ok is false for
// anything malformed — wrong length, bad hex, all-zero ids, unsupported
// version ff — in which case the caller starts a fresh root trace.
func ParseTraceparent(h string) (tid TraceID, parent SpanID, sampled bool, ok bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, parent, false, false
	}
	// Version: two hex chars, ff reserved-invalid. Future versions (anything
	// other than 00) are accepted per spec as long as the 00-shaped prefix
	// parses, but trailing extra fields require the next byte to be a dash.
	ver, err := hex.DecodeString(h[0:2])
	if err != nil || ver[0] == 0xff {
		return tid, parent, false, false
	}
	if ver[0] == 0 && len(h) != 55 {
		return tid, parent, false, false
	}
	if len(h) > 55 && h[55] != '-' {
		return tid, parent, false, false
	}
	if _, err := hex.Decode(tid[:], []byte(h[3:35])); err != nil {
		return TraceID{}, parent, false, false
	}
	if _, err := hex.Decode(parent[:], []byte(h[36:52])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	flags, err := hex.DecodeString(h[53:55])
	if err != nil || tid.IsZero() || parent.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	return tid, parent, flags[0]&FlagSampled != 0, true
}

// FormatTraceparent renders the version-00 traceparent header value.
func FormatTraceparent(tid TraceID, sid SpanID, sampled bool) string {
	buf := make([]byte, 55)
	buf[0], buf[1], buf[2] = '0', '0', '-'
	hex.Encode(buf[3:35], tid[:])
	buf[35] = '-'
	hex.Encode(buf[36:52], sid[:])
	buf[52] = '-'
	flags := byte(0)
	if sampled {
		flags = FlagSampled
	}
	hex.Encode(buf[53:55], []byte{flags})
	return string(buf)
}

// Attr is one span attribute. Values are pre-rendered strings so recording
// never calls fmt on a hot-adjacent path.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one completed stage of a traced request. Spans are immutable once
// their Trace is published.
type Span struct {
	ID     SpanID
	Parent SpanID // zero = root span
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  []Attr
}

// Trace is a completed, immutable trace: the root span first, stage spans
// after it in recording order.
type Trace struct {
	ID    TraceID
	Spans []Span
}

// End returns the root span's end time (the publish that made the traced
// item visible).
func (t *Trace) End() time.Time { return t.Spans[0].End }

// maxSpans bounds a trace's span count; maxAttrs bounds per-span attributes.
// Both are silent-drop bounds: a trace is a diagnostic, not a ledger.
const (
	maxSpans = 16
	maxAttrs = 4
)

// Tracer owns the sampling decision, id generation and the completed-trace
// ring. All methods are safe for concurrent use.
type Tracer struct {
	slots       []atomic.Pointer[Trace]
	head        atomic.Uint64 // next ring slot (monotonic; mod len(slots))
	idctr       atomic.Uint64 // id-generation counter
	seed        uint64        // per-process random seed mixed into every id
	sampleCtr   atomic.Uint64
	sampleEvery uint64 // capture 1 in sampleEvery accepts (0 = never)
}

// DefaultCapacity is the completed-trace ring size used when an embedder
// passes capacity <= 0.
const DefaultCapacity = 256

// DefaultSampleEvery is the default probabilistic capture rate: one in this
// many accepted items records a full span tree (callers sending a sampled
// traceparent are always captured).
const DefaultSampleEvery = 64

// New builds a Tracer with a ring of capacity completed traces, capturing
// one in sampleEvery accepted items (<0 = never sample; 0 = the default
// rate; 1 = always). capacity <= 0 takes DefaultCapacity.
func New(capacity, sampleEvery int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	every := uint64(0)
	switch {
	case sampleEvery == 0:
		every = DefaultSampleEvery
	case sampleEvery > 0:
		every = uint64(sampleEvery)
	}
	var seed [8]byte
	_, _ = cryptorand.Read(seed[:]) // best effort; ids only need uniqueness
	return &Tracer{
		slots:       make([]atomic.Pointer[Trace], capacity),
		seed:        binary.LittleEndian.Uint64(seed[:]) | 1,
		sampleEvery: every,
	}
}

// splitmix64 is the id-generation mixer: a full-period permutation of the
// counter, so ids never collide within a process and look uniform.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *Tracer) nextID() uint64 {
	return splitmix64(t.idctr.Add(1) * t.seed)
}

// NewTraceID returns a fresh non-zero trace id.
func (t *Tracer) NewTraceID() TraceID {
	var id TraceID
	binary.LittleEndian.PutUint64(id[0:8], t.nextID())
	binary.LittleEndian.PutUint64(id[8:16], t.nextID())
	return id
}

// NewSpanID returns a fresh non-zero span id.
func (t *Tracer) NewSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.LittleEndian.PutUint64(id[:], t.nextID())
	}
	return id
}

// sample is the probabilistic capture decision for requests without a
// sampled traceparent.
func (t *Tracer) sample() bool {
	if t.sampleEvery == 0 {
		return false
	}
	return t.sampleCtr.Add(1)%t.sampleEvery == 0
}

// Ctx is the per-request trace context the HTTP boundary extracts (or
// mints) and the handlers read back from the request context. It is a value
// — copying is free and nothing in it is mutated after extraction.
type Ctx struct {
	TraceID TraceID
	// SpanID is this request's root span id (injected into the response
	// traceparent so the caller can correlate).
	SpanID SpanID
	// Parent is the remote caller's span id (zero when this request started
	// the trace).
	Parent SpanID
	// Sampled reports whether this request records a full span tree.
	Sampled bool
	// Start is when the boundary accepted the request (the root span start).
	Start time.Time
}

// Header renders the context as a traceparent header value for injection
// into the HTTP response (or an outgoing request).
func (c Ctx) Header() string { return FormatTraceparent(c.TraceID, c.SpanID, c.Sampled) }

// Extract builds the request trace context from an incoming traceparent
// header at time start: the caller's trace id and sampling decision are
// honored when the header parses; anything malformed or absent starts a
// fresh root trace (never an error). An unsampled incoming header may still
// be locally upgraded by the probabilistic sampler.
func (t *Tracer) Extract(header string, start time.Time) Ctx {
	if tid, parent, sampled, ok := ParseTraceparent(header); ok {
		return Ctx{
			TraceID: tid,
			SpanID:  t.NewSpanID(),
			Parent:  parent,
			Sampled: sampled || t.sample(),
			Start:   start,
		}
	}
	return Ctx{
		TraceID: t.NewTraceID(),
		SpanID:  t.NewSpanID(),
		Sampled: t.sample(),
		Start:   start,
	}
}

// Active is a trace being assembled for one sampled request. All methods
// are nil-safe: an unsampled request carries a nil *Active and every
// recording call is a no-op, so call sites never branch on sampling.
type Active struct {
	tracer *Tracer
	id     TraceID
	root   SpanID
	spans  []Span
}

// Start begins full span capture for a sampled request: the root span opens
// at c.Start under name (it is closed by Finish). Returns nil — the no-op
// recorder — when the request is not sampled.
func (t *Tracer) Start(c Ctx, name string) *Active {
	if !c.Sampled {
		return nil
	}
	a := &Active{
		tracer: t,
		id:     c.TraceID,
		root:   c.SpanID,
		spans:  make([]Span, 1, maxSpans),
	}
	a.spans[0] = Span{ID: c.SpanID, Parent: c.Parent, Name: name, Start: c.Start}
	return a
}

// Child records one completed stage span under the root. Spans beyond the
// per-trace bound are dropped silently.
func (a *Active) Child(name string, start, end time.Time, attrs ...Attr) {
	if a == nil || len(a.spans) >= maxSpans {
		return
	}
	if len(attrs) > maxAttrs {
		attrs = attrs[:maxAttrs]
	}
	a.spans = append(a.spans, Span{
		ID:     a.tracer.NewSpanID(),
		Parent: a.root,
		Name:   name,
		Start:  start,
		End:    end,
		Attrs:  attrs,
	})
}

// Annotate attaches attributes to the root span (bounded; extras dropped).
func (a *Active) Annotate(attrs ...Attr) {
	if a == nil {
		return
	}
	room := maxAttrs - len(a.spans[0].Attrs)
	if room <= 0 {
		return
	}
	if len(attrs) > room {
		attrs = attrs[:room]
	}
	a.spans[0].Attrs = append(a.spans[0].Attrs, attrs...)
}

// TraceID returns the trace id (zero for the nil no-op recorder).
func (a *Active) TraceID() TraceID {
	if a == nil {
		return TraceID{}
	}
	return a.id
}

// Finish closes the root span at end and publishes the completed trace into
// the ring. The Active must not be used afterwards.
func (a *Active) Finish(end time.Time) {
	if a == nil {
		return
	}
	a.spans[0].End = end
	a.tracer.publish(&Trace{ID: a.id, Spans: a.spans})
}

// publish stores one completed trace in the next ring slot. The counter and
// the slot store are separate atomics, so two publishers may claim distinct
// slots or (after wrap-around) overwrite each other — either way each slot
// swap is atomic and readers only ever see whole traces.
func (t *Tracer) publish(tr *Trace) {
	slot := t.head.Add(1) - 1
	t.slots[slot%uint64(len(t.slots))].Store(tr)
}

// Recent returns up to max completed traces, newest first (by root span end
// time). It allocates the result; the traces themselves are shared and
// immutable.
func (t *Tracer) Recent(max int) []*Trace {
	if max <= 0 || max > len(t.slots) {
		max = len(t.slots)
	}
	out := make([]*Trace, 0, max)
	for i := range t.slots {
		if tr := t.slots[i].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	// Insertion sort newest-first: the ring is small and mostly ordered.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].End().After(out[j-1].End()); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// context threading ---------------------------------------------------------

type ctxKey struct{}

// NewContext returns ctx carrying the request trace context.
func NewContext(ctx context.Context, c Ctx) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the request trace context, if the boundary attached
// one.
func FromContext(ctx context.Context) (Ctx, bool) {
	c, ok := ctx.Value(ctxKey{}).(Ctx)
	return c, ok
}
