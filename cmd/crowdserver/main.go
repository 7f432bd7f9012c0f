// Command crowdserver runs the crowdsourcing coordinator: workers fetch
// tasks and submit answers over HTTP while a background pipeline keeps
// hierarchical truth inference and EAI task assignment fresh — incremental
// EM between debounced full refits, reads served lock-free from published
// snapshots. This is the runnable equivalent of the paper's own
// crowdsourcing system (Section 5.5).
//
// The process hosts any number of concurrent campaigns, managed over the v1
// HTTP API and durable under one data directory:
//
//	crowdserver -data-dir /var/lib/crowd -addr :8080
//	curl localhost:8080/v1/campaigns
//	curl -X POST localhost:8080/v1/campaigns -d '{"id":"cities","state":"live","dataset":{...}}'
//	curl 'localhost:8080/v1/campaigns/cities/task?worker=alice'
//
// Everything about one campaign — truth model, inference and assignment
// algorithms, questions per task, refit policy, admission control — is set
// per campaign in the create body (campaign.Spec); the flags here configure
// only the process. Every campaign on disk is recovered at boot (event logs
// replayed); on shutdown all campaigns close concurrently, each flushing its
// ingest queue into a final snapshot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or trickling clients cannot pin connections.
const readHeaderTimeout = 10 * time.Second

// errUsage marks a command-line error whose message and usage text have
// already been written to stderr.
var errUsage = errors.New("usage error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "crowdserver:", err)
		os.Exit(1)
	}
}

// run is the whole program: parse args, recover every campaign under
// -data-dir, serve the v1 API until ctx is cancelled, then drain in-flight
// requests and flush every campaign's ingest queue into a final snapshot,
// so the process never drops an accepted answer from its in-memory state.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("crowdserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataDir   = fs.String("data-dir", "", "campaign data directory (required)")
		addr      = fs.String("addr", ":8080", "listen address")
		pprofOn   = fs.Bool("pprof", true, "serve net/http/pprof profiling endpoints under /debug/pprof/")
		drainWait = fs.Duration("drain", 10*time.Second, "max time to wait for in-flight requests on shutdown")
		logLevel  = fs.String("log-level", "info", "minimum structured log level: debug, info, warn, error, off")
		logFormat = fs.String("log-format", "text", "structured log output format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *dataDir == "" {
		fmt.Fprintln(stderr, "crowdserver: -data-dir is required")
		fs.Usage()
		return fmt.Errorf("%w: -data-dir is required", errUsage)
	}
	logger, err := newLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	mgr, err := campaign.Open(*dataDir, campaign.Options{Logger: logger})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := mgr.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	campaigns := mgr.Campaigns()
	for _, c := range campaigns {
		rec := c.Recovered()
		fmt.Fprintf(stdout, "campaign %s: %s (%d answers, %d objects, %d records replayed; %d malformed skipped, %d duplicates dropped)\n",
			c.ID(), c.State(), rec.Answers, rec.Objects, rec.Records, rec.Skipped, rec.Duplicates)
	}
	handler := mgr.Handler()
	if *pprofOn {
		handler = withPprof(handler)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "crowdserver: hosting %d campaigns from %s, listening on %s\n", len(campaigns), *dataDir, ln.Addr())
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err // before Shutdown, Serve returns only on a listener failure
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "crowdserver: shutting down")
	shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(stderr, "crowdserver: shutdown:", err)
	}
	return nil
}

// withPprof mounts the net/http/pprof handlers next to the application
// handler (the package's DefaultServeMux registration is useless here since
// the server runs its own mux). CPU/heap/goroutine profiles against a live
// campaign are the first slice of the observability roadmap item.
func withPprof(app http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", app)
	return mux
}

// newLogger builds the process logger from the -log-level / -log-format
// flags. "off" discards everything (the pre-slog behaviour); the remaining
// levels map straight onto slog's.
func newLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	case "off", "none":
		return slog.New(slog.DiscardHandler), nil
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, error or off)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}
