package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/synth"
)

// decodeBody decodes and closes a response body.
func decodeBody(t *testing.T, resp *http.Response, into any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// newTracedServer builds a server that captures a full span tree for every
// request (sampling 1-in-1), so lineage tests never depend on the sampler.
func newTracedServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	ds := synth.Heritages(synth.HeritagesConfig{Seed: 11, Scale: 0.06})
	eng, err := engine.New(engine.Categorical, "TDH", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	asg, err := engine.NewAssigner(engine.Categorical, "EAI")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Dataset:          ds,
		Engine:           eng,
		Assigner:         asg,
		K:                3,
		Seed:             11,
		OpenAnswers:      true,
		TraceSampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doTraced performs one request with an explicit traceparent header.
func doTraced(t *testing.T, method, url, traceparent string, body string) *http.Response {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAnswerLineageEndToEnd is the acceptance pin for the lineage tentpole:
// one traced answer is followed from HTTP accept to snapshot visibility —
// the caller's trace id is honored, the watermark advances over
// the acknowledged sequence number, the span tree in /trace carries
// the full pipeline lineage (queue → drain → fold/refit → plan_advance →
// publish), and tdh_visibility_seconds gains exactly one observation for
// the one accepted item.
func TestAnswerLineageEndToEnd(t *testing.T) {
	s, ts := newTracedServer(t)

	tasks := fetchTasks(t, ts.URL, "w-lineage")
	if len(tasks) == 0 {
		t.Fatal("no tasks")
	}
	const sentTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	tp := "00-" + sentTrace + "-00f067aa0ba902b7-01" // sampled flag forces capture
	var accepted struct {
		Accepted bool   `json:"accepted"`
		TraceID  string `json:"trace_id"`
		Shard    *int   `json:"shard"`
		Seq      int64  `json:"seq"`
	}
	resp := doTraced(t, http.MethodPost, ts.URL+"/answer", tp,
		`{"worker":"w-lineage","object":"`+tasks[0].Object+`","value":"`+tasks[0].Candidates[0]+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /answer = %s", resp.Status)
	}
	if got := resp.Header.Get("Traceparent"); !strings.Contains(got, sentTrace) {
		t.Errorf("response traceparent %q does not carry the caller's trace id", got)
	}
	decodeBody(t, resp, &accepted)
	if !accepted.Accepted || accepted.TraceID != sentTrace {
		t.Fatalf("accept ack = %+v, want accepted with trace id %s", accepted, sentTrace)
	}
	if accepted.Shard == nil || accepted.Seq < 1 {
		t.Fatalf("accept ack lacks shard/seq coordinates: %+v", accepted)
	}

	// A synchronous refresh guarantees the covering publish has happened.
	if resp := postJSON(t, ts.URL+"/refresh", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /refresh = %s", resp.Status)
	}

	// The published watermark must cover the acknowledged (shard 0, seq).
	st := s.Stats()
	if *accepted.Shard != 0 || len(st.Watermarks) != 1 {
		t.Fatalf("ack names shard %d, stats carry watermarks %v; want shard 0 and one watermark", *accepted.Shard, st.Watermarks)
	}
	if wm := st.Watermarks[0]; wm < accepted.Seq {
		t.Fatalf("watermark[0] = %d, want >= %d", wm, accepted.Seq)
	}

	// The completed trace is in the ring with the full pipeline lineage.
	var ring struct {
		Count  int `json:"count"`
		Traces []struct {
			TraceID string `json:"trace_id"`
			Root    struct {
				Name     string `json:"name"`
				ParentID string `json:"parent_id"`
				Children []struct {
					Name  string            `json:"name"`
					Attrs map[string]string `json:"attrs"`
				} `json:"children"`
			} `json:"root"`
		} `json:"traces"`
	}
	resp = doTraced(t, http.MethodGet, ts.URL+"/trace", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace = %s", resp.Status)
	}
	decodeBody(t, resp, &ring)
	found := false
	for _, tr := range ring.Traces {
		if tr.TraceID != sentTrace {
			continue
		}
		found = true
		if tr.Root.Name != "answer" {
			t.Errorf("root span name = %q, want answer", tr.Root.Name)
		}
		if tr.Root.ParentID != "00f067aa0ba902b7" {
			t.Errorf("root parent id = %q, want the caller's span id", tr.Root.ParentID)
		}
		stages := map[string]bool{}
		for _, ch := range tr.Root.Children {
			stages[ch.Name] = true
			if ch.Name == "queue" {
				if ch.Attrs["seq"] == "" {
					t.Errorf("queue span lacks its seq attr: %v", ch.Attrs)
				}
			}
		}
		for _, want := range []string{"queue", "drain", "plan_advance", "publish"} {
			if !stages[want] {
				t.Errorf("trace missing %s stage span (have %v)", want, stages)
			}
		}
		if !stages["fold"] && !stages["refit"] {
			t.Errorf("trace has neither fold nor refit span (have %v)", stages)
		}
	}
	if !found {
		t.Fatalf("trace %s not in /trace (got %d traces)", sentTrace, ring.Count)
	}

	// Exactly one accepted item → exactly one visibility observation.
	deadline := time.Now().Add(2 * time.Second)
	for {
		out := scrapeMetrics(t, ts.URL)
		if strings.Contains(out, "tdh_visibility_seconds_count 1\n") {
			break
		}
		if time.Now().After(deadline) {
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "tdh_visibility_seconds_count") {
					t.Fatalf("visibility observations: %q, want exactly 1", line)
				}
			}
			t.Fatal("tdh_visibility_seconds_count missing from /metrics")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTraceparentMalformed pins the boundary contract: a malformed or
// foreign-version traceparent never causes a 4xx — the server mints a fresh
// root trace and the response traceparent is well-formed and unrelated to
// the garbage that came in.
func TestTraceparentMalformed(t *testing.T) {
	_, ts := newTracedServer(t)

	cases := []string{
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // version 00 forbids trailing fields
		"00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-00f067aa0ba902b7-01",       // non-hex trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b-01",        // short span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // version ff is forbidden
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // zero parent id
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",          // future version needs the dash
	}
	for i, tp := range cases {
		resp := doTraced(t, http.MethodGet, ts.URL+"/task?worker=w-mal", tp, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("case %d %q: status %s, want 200", i, tp, resp.Status)
			resp.Body.Close()
			continue
		}
		got := resp.Header.Get("Traceparent")
		resp.Body.Close()
		if len(got) != 55 || !strings.HasPrefix(got, "00-") {
			t.Errorf("case %d %q: response traceparent %q is not well-formed", i, tp, got)
			continue
		}
		if strings.Contains(got, "4bf92f3577b34da6a3ce929d0e0e4736") {
			t.Errorf("case %d %q: fresh root reused the malformed header's trace id: %q", i, tp, got)
		}
	}

	// A well-formed future-version header IS honored: its trace id carries
	// through even though the trailing fields are unknown.
	future := "cc-afcde12345678900afcde12345678900-1234567890abcdef-01-whatever"
	resp := doTraced(t, http.MethodGet, ts.URL+"/task?worker=w-fut", future, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("future-version traceparent: status %s, want 200", resp.Status)
	}
	got := resp.Header.Get("Traceparent")
	resp.Body.Close()
	if !strings.Contains(got, "afcde12345678900afcde12345678900") {
		t.Errorf("future-version trace id not honored: response traceparent %q", got)
	}
}
