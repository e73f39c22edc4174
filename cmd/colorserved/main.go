// Command colorserved serves the protocol registry over HTTP/JSON:
// coloring as a service. Clients POST run, check, and fuzz jobs against
// any registered protocol; the server executes them on a bounded worker
// pool, streams per-job metrics while they run, and keeps results
// fetchable until shutdown. See internal/serve for the API and DESIGN.md
// §12 for the queueing, budgeting, and drain semantics.
//
// Usage:
//
//	colorserved [-addr :8416] [-workers 4] [-queue 64]
//	            [-default-timeout 30s] [-max-timeout 2m]
//	            [-drain-grace 10s] [-progress 0]
//
// Every job runs under a mandatory budget: requests without one get
// -default-timeout, and no request can exceed -max-timeout, so a single
// client cannot starve the pool. Submissions beyond -queue are shed with
// 429. SIGINT/SIGTERM starts a graceful drain: intake stops (503),
// accepted jobs get -drain-grace to finish, stragglers are cancelled and
// complete as PARTIAL, final stats are flushed, and the process exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asynccycle/internal/runctl"
	"asynccycle/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "colorserved:", err)
		os.Exit(1)
	}
}

// run boots the server and blocks until ctx is cancelled (the signal
// path) and the drain completes. ready, when non-nil, is called with the
// bound address once the listener is up — the test hook.
func run(ctx context.Context, args []string, w io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("colorserved", flag.ContinueOnError)
	addr := fs.String("addr", ":8416", "listen address")
	workers := fs.Int("workers", 4, "execution worker pool size")
	queue := fs.Int("queue", 64, "bounded queue depth; submissions beyond it are shed with 429")
	defaultTimeout := fs.Duration("default-timeout", 30*time.Second, "wall-clock budget for jobs that request none")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "per-job wall-clock ceiling; requested budgets are clamped to it")
	drainGrace := fs.Duration("drain-grace", 10*time.Second, "how long a drain waits before cancelling in-flight jobs")
	progress := fs.Duration("progress", 0, "print server stats at this interval (0 = off)")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}

	s := serve.New(serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *defaultTimeout,
		MaxBudget:      runctl.Budget{Timeout: *maxTimeout},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Fixed connection timeouts: a slow client cannot pin a connection
	// by trickling headers or idling between requests. No read or write
	// deadline covers whole requests, since ?wait=1 views and metrics
	// watches legitimately stay open for a job's lifetime.
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(w, "colorserved: listening on %s (workers=%d queue=%d default-timeout=%s max-timeout=%s)\n",
		ln.Addr(), *workers, *queue, *defaultTimeout, *maxTimeout)
	if ready != nil {
		ready(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	var stopProgress func()
	if *progress > 0 {
		stopProgress = startProgress(w, s, *progress)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop intake, let accepted jobs finish within the
	// grace, cancel stragglers to PARTIAL, then flush final stats and
	// close the HTTP side (results stay fetchable until then).
	fmt.Fprintf(w, "colorserved: signal received, draining (grace %s)\n", *drainGrace)
	s.Drain(*drainGrace)
	if stopProgress != nil {
		stopProgress()
	}
	flushStats(w, s)

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(w, "colorserved: drained, exiting")
	return nil
}

// startProgress prints the server counters at the given interval; the
// returned stop is idempotent via the nil-check dance in run.
func startProgress(w io.Writer, s *serve.Server, every time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				flushStats(w, s)
			}
		}
	}()
	return func() { close(done) }
}

func flushStats(w io.Writer, s *serve.Server) {
	data, _ := json.Marshal(s.Stats())
	fmt.Fprintf(w, "colorserved: stats %s\n", data)
}
