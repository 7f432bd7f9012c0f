package main

import (
	"strings"
	"testing"
)

const beforeText = `# HELP tdh_answers_accepted_total crowd answers accepted
# TYPE tdh_answers_accepted_total counter
tdh_answers_accepted_total 10
# TYPE tdh_http_responses_total counter
tdh_http_responses_total{class="2xx",route="/answer"} 10
tdh_http_responses_total{class="5xx",route="/answer"} 0
# TYPE tdh_pipeline_stage_seconds histogram
tdh_pipeline_stage_seconds_bucket{stage="refit",le="0.0001"} 0
tdh_pipeline_stage_seconds_bucket{stage="refit",le="+Inf"} 2
tdh_pipeline_stage_seconds_sum{stage="refit"} 0.5
tdh_pipeline_stage_seconds_count{stage="refit"} 2
tdh_weird{path="a\"b\\c"} 1 1700000000000
`

const afterText = `tdh_answers_accepted_total 25
tdh_http_responses_total{route="/answer",class="2xx"} 25
tdh_http_responses_total{route="/answer",class="5xx"} 1
tdh_pipeline_stage_seconds_sum{stage="refit"} 2.25
tdh_pipeline_stage_seconds_count{stage="refit"} 9
tdh_only_after_total 3
`

func mustParse(t *testing.T, text string) scrape {
	t.Helper()
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParsePromSeries(t *testing.T) {
	s := mustParse(t, beforeText)
	for _, tc := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"tdh_answers_accepted_total", nil, 10},
		{"tdh_http_responses_total", []string{"route", "/answer", "class", "2xx"}, 10},
		{"tdh_http_responses_total", []string{"class", "2xx", "route", "/answer"}, 10}, // label order is irrelevant
		{"tdh_pipeline_stage_seconds_sum", []string{"stage", "refit"}, 0.5},
		{"tdh_pipeline_stage_seconds_count", []string{"stage", "refit"}, 2},
		{"tdh_pipeline_stage_seconds_bucket", []string{"stage", "refit", "le", "+Inf"}, 2},
		{"tdh_weird", []string{"path", `a"b\c`}, 1}, // escapes, and a trailing timestamp
	} {
		got, err := s.value(tc.name, tc.labels...)
		if err != nil || got != tc.want {
			t.Errorf("%s%v = %v, %v; want %v", tc.name, tc.labels, got, err, tc.want)
		}
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, text := range []string{"novalue\n", "name{a=\"b\" 1\n", "name{a=b} 1\n", "name notanumber\n"} {
		if _, err := parseProm(strings.NewReader(text)); err == nil {
			t.Errorf("parseProm(%q) succeeded", text)
		}
	}
}

func TestDeltaSubtractsBeforeFromAfter(t *testing.T) {
	d := deltaScrape{before: mustParse(t, beforeText), after: mustParse(t, afterText)}
	if v, err := d.value("tdh_answers_accepted_total"); err != nil || v != 15 {
		t.Errorf("counter delta = %v, %v; want 15", v, err)
	}
	if v, err := d.value("tdh_http_responses_total", "route", "/answer", "class", "5xx"); err != nil || v != 1 {
		t.Errorf("labelled counter delta = %v, %v; want 1", v, err)
	}
	sum, count, err := d.histDelta("tdh_pipeline_stage_seconds", "stage", "refit")
	if err != nil || sum != 1.75 || count != 7 {
		t.Errorf("histogram delta = %v, %v, %v; want 1.75, 7", sum, count, err)
	}
}

// A series the tables name must never read 0 because it is gone: a later
// change that renames a metric has to fail the run, not zero a layer.
func TestAbsentSeriesFailsLoudly(t *testing.T) {
	d := deltaScrape{before: mustParse(t, beforeText), after: mustParse(t, afterText)}
	for _, tc := range []struct {
		name   string
		labels []string
	}{
		{"tdh_renamed_total", nil},
		{"tdh_pipeline_stage_seconds_sum", []string{"stage", "fold"}},
		{"tdh_only_after_total", nil}, // present after, absent before
		{"tdh_weird", []string{"path", `a"b\c`}},
	} {
		if v, err := d.value(tc.name, tc.labels...); err == nil {
			t.Errorf("delta of absent series %s%v = %v, want an error", tc.name, tc.labels, v)
		}
	}
	if _, _, err := d.histDelta("tdh_eventlog_append_seconds"); err == nil {
		t.Error("histDelta of an absent histogram succeeded")
	}
}
