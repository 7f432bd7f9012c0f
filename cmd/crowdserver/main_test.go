package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// createCities is a POST /v1/campaigns body: a live, open campaign over a
// two-object dataset in the data package's wire format.
const createCities = `{"id":"cities","state":"live","open_answers":true,"dataset":{
 "name":"cities","root":"World",
 "edges":[["USA","World"],["UK","World"],["NY","USA"],["LA","USA"],["London","UK"]],
 "records":[
  {"object":"hq-1","source":"s1","value":"NY"},{"object":"hq-1","source":"s2","value":"USA"},{"object":"hq-1","source":"s3","value":"LA"},
  {"object":"hq-2","source":"s1","value":"London"},{"object":"hq-2","source":"s2","value":"UK"},{"object":"hq-2","source":"s3","value":"NY"}],
 "answers":[],"truth":{}}}`

const answerCities = `{"worker":"alice","object":"hq-1","value":"NY"}`

// startRun runs the program in the background; lines carries its stdout and
// is closed when run returns, done carries run's result.
func startRun(ctx context.Context, args ...string) (lines <-chan string, done <-chan error) {
	pr, pw := io.Pipe()
	// Buffered past the handful of lines a run prints, so a test that stops
	// reading never blocks the program's writes.
	lineCh := make(chan string, 64)
	go func() {
		defer close(lineCh)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lineCh <- sc.Text()
		}
	}()
	doneCh := make(chan error, 1)
	go func() {
		err := run(ctx, args, pw, io.Discard)
		pw.Close()
		doneCh <- err
	}()
	return lineCh, doneCh
}

// waitLine returns what follows substr on the first stdout line containing
// it.
func waitLine(t *testing.T, lines <-chan string, substr string) string {
	t.Helper()
	timeout := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("run exited before printing %q", substr)
			}
			if _, after, ok := strings.Cut(line, substr); ok {
				return after
			}
		case <-timeout:
			t.Fatalf("no stdout line containing %q", substr)
		}
	}
}

func post(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRunServesFlushesAndRecovers drives the binary's whole life: boot on an
// empty data directory, create a live campaign and accept an answer over
// HTTP, shut down on context cancellation (drain + final flush must succeed:
// run returns nil), then boot again on the same directory and find the
// answer replayed.
func TestRunServesFlushesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-data-dir", dir, "-addr", "127.0.0.1:0", "-log-level", "off"}
	const listening = "listening on "

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lines, done := startRun(ctx, args...)
	base := "http://" + waitLine(t, lines, listening)
	if code := post(t, base+"/v1/campaigns", createCities); code != http.StatusCreated {
		t.Fatalf("create campaign = %d", code)
	}
	if code := post(t, base+"/v1/campaigns/cities/answer", answerCities); code != http.StatusOK {
		t.Fatalf("POST answer = %d", code)
	}
	cancel()
	waitLine(t, lines, "shutting down")
	if err := <-done; err != nil {
		t.Fatalf("run after cancel: %v", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	lines, done = startRun(ctx2, args...)
	if rec := waitLine(t, lines, "campaign cities:"); !strings.HasPrefix(rec, " live (1 answers,") {
		t.Fatalf("recovery line = %q, want a live campaign with 1 answer replayed", rec)
	}
	base = "http://" + waitLine(t, lines, listening)
	// The replayed answer is in the campaign's state: resubmitting it is a
	// duplicate, not a fresh accept.
	if code := post(t, base+"/v1/campaigns/cities/answer", answerCities); code != http.StatusConflict {
		t.Fatalf("resubmitted answer = %d, want 409", code)
	}
	cancel2()
	if err := <-done; err != nil {
		t.Fatalf("second run after cancel: %v", err)
	}
}

// TestRemovedFlagsRejected: the single-campaign flags are gone, not ignored
// — each is a usage error — and the usage text lists exactly the seven
// process-level flags that remain.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, name := range []string{
		"in", "log", "model", "alg", "assign", "k", "seed", "open",
		"refit-answers", "refit-staleness", "batch", "queue", "reject-queue", "shards",
	} {
		var stderr bytes.Buffer
		err := run(context.Background(), []string{"-data-dir", t.TempDir(), "-" + name, "1"}, io.Discard, &stderr)
		if !errors.Is(err, errUsage) {
			t.Errorf("-%s: err = %v, want a usage error", name, err)
		}
		if msg := stderr.String(); !strings.Contains(msg, "flag provided but not defined: -"+name) ||
			!strings.Contains(msg, "Usage of crowdserver") {
			t.Errorf("-%s: stderr = %q, want the undefined-flag message and usage", name, msg)
		}
	}

	var usage bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, io.Discard, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v", err)
	}
	var flags []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	want := "-addr -data-dir -drain -log-format -log-level -pprof -workers"
	if got := strings.Join(flags, " "); got != want {
		t.Errorf("flags = %s, want %s", got, want)
	}
}
