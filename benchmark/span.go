package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside internal/... are a later change). Times are offsets
// from the recorder's epoch. Parent is the ID of the span that caused this
// one, 0 for a root; spans of one run share Run.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Run    string        `json:"run"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how untraced runs run the same code.
type recorder struct {
	epoch time.Time
	run   string

	mu    sync.Mutex
	spans []span
}

func newRecorder(run string) *recorder {
	return &recorder{epoch: time.Now(), run: run}
}

// add records a completed span and returns its ID.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Run: r.run,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch),
	})
	return id
}

// open records a span whose end is not yet known, so children can name it
// as their parent; close sets the end.
func (r *recorder) open(name string, parent int, start time.Time) int {
	return r.add(name, parent, start, start)
}

func (r *recorder) close(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end.Sub(r.epoch)
	r.mu.Unlock()
}

// timed runs f inside a span.
func (r *recorder) timed(name string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.add(name, parent, start, end)
	return end.Sub(start)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Overlapping children are counted
// once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	type iv struct{ a, b time.Duration }
	kids := map[int][]iv{}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := s.Start, s.End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, reach time.Duration
		reach = s.Start
		for _, k := range ivs {
			if k.b <= reach {
				continue
			}
			if k.a < reach {
				k.a = reach
			}
			covered += k.b - k.a
			reach = k.b
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// budgetRow is one line of a budget: a layer's total self time under the
// budget's roots.
type budgetRow struct {
	Name string
	Self time.Duration
	N    int
}

// budget adds up, by span name, the self time of every span below the roots
// named root; the roots' own self time is the time no child span explains
// and is returned as the explicit unexplained figure. total is the roots'
// summed duration, so rows + unexplained == total.
func budget(spans []span, root string) (rows []budgetRow, unexplained, total time.Duration, roots int) {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	under := func(s span) bool {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return false
			}
			if p.Name == root {
				return true
			}
			s = p
		}
		return false
	}
	agg := map[string]*budgetRow{}
	for _, s := range spans {
		switch {
		case s.Name == root && s.Parent == 0:
			roots++
			total += s.End - s.Start
			unexplained += self[s.ID]
		case under(s):
			row := agg[s.Name]
			if row == nil {
				row = &budgetRow{Name: s.Name}
				agg[s.Name] = row
			}
			row.Self += self[s.ID]
			row.N++
		}
	}
	for _, row := range agg {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, unexplained, total, roots
}

// printBudget writes a budget as children's self time plus the unexplained
// row, per root (a restart, one coordinator cycle).
func printBudget(w io.Writer, title string, spans []span, root string) {
	rows, unexplained, total, roots := budget(spans, root)
	if roots == 0 {
		return
	}
	per := func(d time.Duration) float64 { return float64(d) / float64(roots) / 1e6 }
	fmt.Fprintf(w, "budget: %s (%d × %q, %.3f ms each)\n", title, roots, root, per(total))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %10.3f ms  %5.1f%%  (%d spans)\n", r.Name, per(r.Self), share(r.Self, total), r.N)
	}
	fmt.Fprintf(w, "  %-24s %10.3f ms  %5.1f%%\n", "unexplained", per(unexplained), share(unexplained, total))
}

func share(part, whole time.Duration) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
