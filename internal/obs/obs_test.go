package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	// Idempotent registration: same identity, same instrument.
	if r.Counter("c_total", "a counter") != c {
		t.Fatal("re-registering a counter returned a different instrument")
	}
	if r.Counter("c_total", "a counter", "k", "v") == c {
		t.Fatal("different labels must be a different series")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type conflict")
		}
	}()
	r.Gauge("m", "")
}

// TestHistogramBucketBoundaries pins the boundary convention: Prometheus
// buckets are upper-INCLUSIVE (le), so a value exactly on a bound lands in
// that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0001, 2, 4, 4.0001, 100} {
		h.Observe(v)
	}
	counts, total, sum := h.snapshot()
	if want := []uint64{2, 2, 1, 2}; len(counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(counts), len(want))
	} else {
		for i := range want {
			if counts[i] != want[i] {
				t.Fatalf("bucket[%d] = %d, want %d (counts %v)", i, counts[i], want[i], counts)
			}
		}
	}
	if total != 7 {
		t.Fatalf("count = %d, want 7", total)
	}
	if wantSum := 0.5 + 1 + 1.0001 + 2 + 4 + 4.0001 + 100; math.Abs(sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", sum, wantSum)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

// TestConcurrentObserveScrape hammers every instrument type from many
// goroutines while scraping concurrently; correctness is the final counts
// (no lost updates) and the race detector validates the memory model.
func TestConcurrentObserveScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "")
	g := r.Gauge("depth", "")
	h := r.Histogram("lat", "", LatencyBuckets())
	r.GaugeFunc("fn", "", func() float64 { return float64(c.Value()) })

	const workers, perWorker = 8, 5000
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() { // concurrent scraper
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001 * float64(i%10))
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scraperDone

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// BenchmarkObserve pins the hot-path cost and the alloc-free contract the
// hotpathalloc analyzer enforces statically: one histogram observation is a
// bounded-bucket scan plus two atomic updates, no allocation.
func BenchmarkObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("h", "", LatencyBuckets())
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(0.0001 * float64(i%64))
			c.Inc()
			g.Add(1)
			i++
		}
	})
}

func TestTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("tdh_reqs_total", "requests", "route", "/task", "class", "2xx").Add(3)
	r.Gauge("tdh_in_flight", "in flight").Set(2)
	h := r.Histogram("tdh_dur_seconds", "latency", []float64{0.1, 1}, "route", "/task")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP tdh_dur_seconds latency\n",
		"# TYPE tdh_dur_seconds histogram\n",
		`tdh_dur_seconds_bucket{route="/task",le="0.1"} 1` + "\n",
		`tdh_dur_seconds_bucket{route="/task",le="1"} 2` + "\n",
		`tdh_dur_seconds_bucket{route="/task",le="+Inf"} 3` + "\n",
		`tdh_dur_seconds_sum{route="/task"} 5.55` + "\n",
		`tdh_dur_seconds_count{route="/task"} 3` + "\n",
		"# TYPE tdh_in_flight gauge\ntdh_in_flight 2\n",
		"# TYPE tdh_reqs_total counter\n" + `tdh_reqs_total{class="2xx",route="/task"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n--- got:\n%s", want, out)
		}
	}
	// Families are sorted by name: dur < in_flight < reqs.
	if !(strings.Index(out, "tdh_dur_seconds") < strings.Index(out, "tdh_in_flight") &&
		strings.Index(out, "tdh_in_flight") < strings.Index(out, "tdh_reqs_total")) {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", "k", "a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `c_total{k="a\"b\\c\nd"} 1`; !strings.Contains(sb.String(), want) {
		t.Fatalf("escaping wrong:\n%s", sb.String())
	}
}

// TestMergeLabeled checks the manager-style aggregation: two registries
// exporting the same family merge under one HELP/TYPE header with the
// campaign label injected in sorted position.
func TestMergeLabeled(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("tdh_answers_total", "answers", "route", "/answer").Add(2)
	b.Counter("tdh_answers_total", "answers", "route", "/answer").Add(7)

	var sb strings.Builder
	err := WriteText(&sb, MergeLabeled("campaign", []LabeledRegistry{
		{Value: "beta", Registry: b},
		{Value: "alpha", Registry: a},
	}))
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "# TYPE tdh_answers_total counter") != 1 {
		t.Fatalf("TYPE must appear once:\n%s", out)
	}
	for _, want := range []string{
		`tdh_answers_total{campaign="alpha",route="/answer"} 2`,
		`tdh_answers_total{campaign="beta",route="/answer"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// Series sorted: alpha before beta.
	if strings.Index(out, `campaign="alpha"`) > strings.Index(out, `campaign="beta"`) {
		t.Errorf("series not sorted by labels:\n%s", out)
	}
}
