// Command qbpartd is the partitioning service: a long-running HTTP daemon
// that accepts solve jobs, runs them on a bounded worker pool with
// per-worker warm solver scratch, enforces per-job deadlines and budgets
// through the solvers' cancellation contract, streams incumbent-trajectory
// progress as Server-Sent Events, and drains gracefully on SIGINT/SIGTERM —
// in-flight jobs complete with their best-so-far incumbents.
//
// API (see DESIGN.md §14 and the README quickstart):
//
//	POST   /jobs             submit a problem (text or binary body, auto-detected);
//	                         knobs as query parameters: method, iterations,
//	                         multistart, seed, relax, deadline, priority
//	GET    /jobs             list jobs
//	GET    /jobs/{id}        job status + result
//	GET    /jobs/{id}/events SSE progress stream (state, progress, done)
//	DELETE /jobs/{id}        cancel (running jobs return best-so-far)
//	GET    /metrics          Prometheus text metrics
//	GET    /healthz          liveness (503 while draining)
//
// Backpressure: a full queue answers 429 with Retry-After; instances above
// -max-components answer 413. A job with a fixed seed produces the
// identical assignment regardless of -workers or queue order.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobqueue"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the daemon lifecycle: parse flags, serve until a signal, drain,
// exit. 0 on a clean drain, 1 on serve/drain failure, 2 on usage errors.
func run(args []string) int {
	fs := flag.NewFlagSet("qbpartd", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", "127.0.0.1:8077", "listen address")
		workers       = fs.Int("workers", 0, "concurrent solves (0 = GOMAXPROCS); per-job determinism is independent of this")
		queueCap      = fs.Int("queue", 64, "queued-job bound; submissions beyond it get 429")
		maxComponents = fs.Int("max-components", 0, "reject instances with more components (0 = unlimited)")
		defDeadline   = fs.Duration("default-deadline", 0, "deadline applied to jobs that request none (0 = unbounded)")
		maxDeadline   = fs.Duration("max-deadline", 0, "cap on per-job deadlines (0 = no cap)")
		maxBody       = fs.Int64("max-body", 64<<20, "request body limit in bytes")
		grace         = fs.Duration("grace", 30*time.Second, "drain budget after SIGINT/SIGTERM before giving up on in-flight jobs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *queueCap < 1 || *workers < 0 || *maxComponents < 0 || *defDeadline < 0 || *maxDeadline < 0 || *maxBody < 1 || *grace < 0 {
		fmt.Fprintln(os.Stderr, "qbpartd: flag values must be non-negative (queue and max-body at least 1)")
		fs.Usage()
		return 2
	}

	// The same signal.NotifyContext mechanism that gives qbpart its
	// interrupt-safe best-so-far exit drives the daemon's graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	pool := jobqueue.New(jobqueue.Config{
		Workers:         *workers,
		QueueCap:        *queueCap,
		MaxComponents:   *maxComponents,
		DefaultDeadline: *defDeadline,
		MaxDeadline:     *maxDeadline,
	})
	srv := &http.Server{Addr: *addr, Handler: newServer(pool, *maxBody)}

	serveErr := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "qbpartd: listening on %s (workers %d, queue %d)\n",
			*addr, pool.Workers(), pool.QueueCap())
		serveErr <- srv.ListenAndServe()
	}()

	select {
	case err := <-serveErr:
		// ListenAndServe only returns on failure here (Shutdown happens on
		// the signal path below).
		fmt.Fprintln(os.Stderr, "qbpartd:", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "qbpartd: signal received, draining (in-flight jobs return best-so-far)")
	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	code := 0
	if err := pool.Shutdown(graceCtx); err != nil {
		fmt.Fprintln(os.Stderr, "qbpartd: drain:", err)
		code = 1
	}
	if err := srv.Shutdown(graceCtx); err != nil {
		fmt.Fprintln(os.Stderr, "qbpartd: http shutdown:", err)
		code = 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "qbpartd:", err)
		code = 1
	}
	fmt.Fprintln(os.Stderr, "qbpartd: drained, exiting")
	return code
}
