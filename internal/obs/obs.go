// Package obs is the stdlib-only metrics subsystem behind GET /metrics: a
// registry of counters, gauges and fixed-bucket histograms exposed in the
// Prometheus text format. It exists to prove the scale claims with numbers
// — per-route HTTP latency, pipeline stage timings, event-log fsync cost,
// queue depths — instead of single-point Go benchmarks.
//
// Design constraints, in order:
//
//   - The observe path must be safe on the server's hot paths: Counter.Inc,
//     Gauge.Set and Histogram.Observe are single atomic operations (the
//     histogram adds a short bounds scan and a CAS loop for the sum) and
//     allocate nothing, so instrumenting the ingest path stays within the
//     ≤2% overhead budget and the //tdh:hotpath discipline.
//   - Scrapes never block observers: Gather reads the same atomics and
//     takes the registry lock only to walk the (append-only) family list,
//     so a scrape racing a million Observes is an ordinary, race-free read
//     that may be at most one observation out of date per series.
//   - No dependencies: the repo serves Prometheus text because the format
//     is trivially writable by hand, not because a client library is.
//
// Instruments are identified by (name, ordered label pairs). Registering
// the same identity twice returns the same instrument, so wiring code can
// be idempotent; registering the same name with a different type panics
// (a programming error, caught at boot, never at scrape time).
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// MetricType is the Prometheus metric type of a family.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Registry holds metric families and renders them for scraping. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one metric name: its metadata plus every labeled child.
type family struct {
	name string
	help string
	typ  MetricType

	mu       sync.Mutex
	children []*child
}

// child is one labeled instrument of a family. Exactly one of counter,
// gauge, valueFn, hist is set; valueFn serves both GaugeFunc and
// CounterFunc, the family type telling them apart.
type child struct {
	labels  []string // alternating key, value; sorted by key
	counter *Counter
	gauge   *Gauge
	valueFn func() float64
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// familyFor returns (creating if needed) the family with this name,
// panicking when the name is already registered with a different type —
// the text format cannot represent that, and it is always a wiring bug.
func (r *Registry) familyFor(name, help string, typ MetricType) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// find returns the child with exactly these (sorted) labels, if present.
// Callers hold f.mu.
func (f *family) find(labels []string) *child {
	for _, c := range f.children {
		if labelsEqual(c.labels, labels) {
			return c
		}
	}
	return nil
}

func labelsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortLabels validates and key-sorts alternating key/value pairs.
func sortLabels(labels []string) []string {
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	if len(labels) == 0 {
		return nil
	}
	out := append([]string(nil), labels...)
	// Insertion sort over pairs: label sets are tiny (≤3 pairs in practice).
	for i := 2; i < len(out); i += 2 {
		for j := i; j > 0 && out[j] < out[j-2]; j -= 2 {
			out[j], out[j-2] = out[j-2], out[j]
			out[j+1], out[j-1] = out[j-1], out[j+1]
		}
	}
	return out
}

// Counter registers (or returns the existing) monotonically increasing
// counter. labels are alternating key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.familyFor(name, help, TypeCounter)
	ls := sortLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.find(ls); c != nil {
		return c.counter
	}
	c := &child{labels: ls, counter: &Counter{}}
	f.children = append(f.children, c)
	return c.counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	f := r.familyFor(name, help, TypeGauge)
	ls := sortLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.find(ls); c != nil {
		return c.gauge
	}
	c := &child{labels: ls, gauge: &Gauge{}}
	f.children = append(f.children, c)
	return c.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time (queue
// depths, snapshot age). Registering the same identity again replaces the
// callback, so rebuilt components can re-register without duplicating
// series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.valueFunc(TypeGauge, name, help, fn, labels)
}

// CounterFunc registers a counter whose value is read at scrape time from
// storage the caller owns (a count some other package increments through a
// plain atomic). fn must be monotone. Re-registration replaces the callback,
// as for GaugeFunc.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.valueFunc(TypeCounter, name, help, fn, labels)
}

func (r *Registry) valueFunc(typ MetricType, name, help string, fn func() float64, labels []string) {
	f := r.familyFor(name, help, typ)
	ls := sortLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.find(ls); c != nil {
		c.counter, c.gauge, c.valueFn = nil, nil, fn
		return
	}
	f.children = append(f.children, &child{labels: ls, valueFn: fn})
}

// Histogram registers (or returns the existing) fixed-bucket histogram.
// buckets are the upper bounds (strictly increasing, +Inf implicit); the
// identity's bucket layout is fixed by the first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	f := r.familyFor(name, help, TypeHistogram)
	ls := sortLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.find(ls); c != nil {
		return c.hist
	}
	c := &child{labels: ls, hist: newHistogram(buckets)}
	f.children = append(f.children, c)
	return c.hist
}

// Counter is a monotonically increasing counter. All methods are safe for
// concurrent use and never allocate.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//tdh:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0; counters only go up) and returns the new
// count, so a caller that reports "you are the n-th" needs no second store.
//
//tdh:hotpath
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits. All
// methods are safe for concurrent use and never allocate.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
//
//tdh:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge (CAS loop; contended adds retry).
//
//tdh:hotpath
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Observe is lock-free and
// allocation-free: a scan over the (small, immutable) bound slice, one
// atomic bucket increment, and a CAS loop for the running sum. The total
// count is derived from the buckets at scrape time so a scrape can never
// see count and buckets disagree by more than in-flight observations.
type Histogram struct {
	bounds []float64       // immutable upper bounds, strictly increasing
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow bucket
	sum    atomic.Uint64   // float64 bits of the running sum
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly increasing at %d: %v", i, buckets))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

// Observe records one value.
//
//tdh:hotpath
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// snapshot reads the per-bucket counts (non-cumulative), the total count
// and the sum.
func (h *Histogram) snapshot() (counts []uint64, total uint64, sum float64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total, math.Float64frombits(h.sum.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	_, total, _ := h.snapshot()
	return total
}

// ExpBuckets returns n exponentially growing upper bounds starting at start
// and multiplying by factor: the log-scale layout latency and size
// histograms use.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets covers 100µs to ~6.5s in ×2 steps: HTTP handler and
// pipeline-stage latencies in seconds.
func LatencyBuckets() []float64 { return ExpBuckets(100e-6, 2, 17) }

// SizeBuckets covers 1 to 4096 in ×2 steps: batch sizes and queue lengths.
func SizeBuckets() []float64 { return ExpBuckets(1, 2, 13) }

// ---------------------------------------------------------------------------
// Gather: the structured scrape.

// Metric is one gathered series: its label pairs plus either a scalar value
// (counter, gauge) or the histogram triple.
type Metric struct {
	Labels []string // alternating key, value; sorted by key

	Value float64 // counter, gauge

	// Histogram data: per-bound CUMULATIVE counts aligned with Bounds,
	// total count and sum. InfCount is the +Inf cumulative count (== Count).
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Family is one gathered metric family.
type Family struct {
	Name    string
	Help    string
	Type    MetricType
	Metrics []Metric
}

// Gather snapshots every family, sorted by name with series sorted by label
// signature, ready for text encoding or cross-registry merging.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		gf := Family{Name: f.name, Help: f.help, Type: f.typ}
		f.mu.Lock()
		children := append([]*child(nil), f.children...)
		f.mu.Unlock()
		for _, c := range children {
			m := Metric{Labels: c.labels}
			switch {
			case c.counter != nil:
				m.Value = float64(c.counter.Value())
			case c.gauge != nil:
				m.Value = c.gauge.Value()
			case c.valueFn != nil:
				m.Value = c.valueFn()
			case c.hist != nil:
				counts, total, sum := c.hist.snapshot()
				m.Bounds = c.hist.bounds
				m.Counts = make([]uint64, len(c.hist.bounds))
				var cum uint64
				for i := range m.Counts {
					cum += counts[i]
					m.Counts[i] = cum
				}
				m.Count, m.Sum = total, sum
			}
			gf.Metrics = append(gf.Metrics, m)
		}
		sort.Slice(gf.Metrics, func(i, j int) bool {
			return labelsLess(gf.Metrics[i].Labels, gf.Metrics[j].Labels)
		})
		out = append(out, gf)
	}
	return out
}

func labelsLess(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
