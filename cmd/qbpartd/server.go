package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	partition "repro"
	"repro/internal/jobqueue"
)

// server is the HTTP face of a jobqueue.Pool.
type server struct {
	pool    *jobqueue.Pool
	maxBody int64
}

// newServer builds the daemon's handler over pool. maxBody caps request
// bodies in bytes (≤ 0 means 64 MiB).
func newServer(pool *jobqueue.Pool, maxBody int64) http.Handler {
	if maxBody <= 0 {
		maxBody = 64 << 20
	}
	s := &server{pool: pool, maxBody: maxBody}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// submitResponse acknowledges an accepted job.
type submitResponse struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Format     string `json:"format"` // detected problem serialization
	Components int    `json:"components"`
	Partitions int    `json:"partitions"`
	QueueDepth int    `json:"queue_depth"`
}

// statusResponse is the wire shape of a job snapshot.
type statusResponse struct {
	ID          string      `json:"id"`
	State       string      `json:"state"`
	Method      string      `json:"method"`
	Priority    int         `json:"priority"`
	Components  int         `json:"components"`
	Partitions  int         `json:"partitions"`
	SubmittedAt string      `json:"submitted_at"`
	StartedAt   string      `json:"started_at,omitempty"`
	FinishedAt  string      `json:"finished_at,omitempty"`
	Result      *resultBody `json:"result,omitempty"`
	Error       string      `json:"error,omitempty"`
}

// resultBody carries a finished job's solution.
type resultBody struct {
	Assignment       []int      `json:"assignment"`
	Objective        int64      `json:"objective"`
	WireLength       int64      `json:"wire_length"`
	Feasible         bool       `json:"feasible"`
	TimingViolations int        `json:"timing_violations"`
	Stopped          bool       `json:"stopped"`
	Stats            *statsBody `json:"stats,omitempty"`
}

// statsBody is the QBP telemetry summary.
type statsBody struct {
	Starts         int     `json:"starts"`
	Iterations     int     `json:"iterations"`
	Restarts       int     `json:"restarts"`
	EtaFull        int     `json:"eta_full"`
	EtaIncremental int     `json:"eta_incremental"`
	Density        float64 `json:"density"`
	NNZ            int     `json:"nnz"`
}

// progressBody is one SSE progress event payload.
type progressBody struct {
	Start         int   `json:"start"`
	Iteration     int   `json:"iteration"`
	Iterations    int   `json:"iterations"`
	BestPenalized int64 `json:"best_penalized"`
	BestFeasible  int64 `json:"best_feasible"`
	Restarts      int   `json:"restarts"`
	ElapsedMillis int64 `json:"elapsed_ms"`
}

// writeJSON writes v with the given status; encoding a fixed struct cannot
// fail except on a dead connection, where there is nobody left to tell.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError sends a JSON error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// handleSubmit enqueues a solve: the body is the problem in the text or
// binary format (auto-detected), the query parameters are the solve knobs
// (method, iterations, multistart, seed, relax, deadline, priority).
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	prob, format, err := partition.ReadProblemDetect(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("problem body exceeds the %d-byte limit", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parsing problem: %v", err))
		return
	}

	req := jobqueue.Request{Problem: prob}
	q := r.URL.Query()
	req.Method = q.Get("method")
	if err := queryInt(q.Get("iterations"), &req.Iterations); err != nil {
		writeError(w, http.StatusBadRequest, "iterations: "+err.Error())
		return
	}
	if err := queryInt(q.Get("multistart"), &req.MultiStart); err != nil {
		writeError(w, http.StatusBadRequest, "multistart: "+err.Error())
		return
	}
	if err := queryInt(q.Get("priority"), &req.Priority); err != nil {
		writeError(w, http.StatusBadRequest, "priority: "+err.Error())
		return
	}
	if v := q.Get("seed"); v != "" {
		seed, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("seed: invalid integer %q", v))
			return
		}
		req.Seed = seed
	}
	if v := q.Get("relax"); v != "" {
		relax, perr := strconv.ParseBool(v)
		if perr != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("relax: invalid boolean %q", v))
			return
		}
		req.RelaxTiming = relax
	}
	if v := q.Get("deadline"); v != "" {
		d, perr := time.ParseDuration(v)
		if perr != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("deadline: invalid duration %q", v))
			return
		}
		req.Deadline = d
	}

	job, err := s.pool.Submit(req)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	st := job.Status()
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:         job.ID(),
		State:      st.State.String(),
		Format:     format.String(),
		Components: st.Components,
		Partitions: st.Partitions,
		QueueDepth: s.pool.Metrics().QueueDepth,
	})
}

// writeSubmitError maps jobqueue admission errors to status codes:
// backpressure is 429 with a Retry-After hint, the size ceiling is 413,
// shutdown is 503, and malformed requests are 400.
func (s *server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobqueue.ErrQueueFull):
		m := s.pool.Metrics()
		retry := 1 + m.QueueDepth/m.Workers
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, jobqueue.ErrTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
	case errors.Is(err, jobqueue.ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// queryInt parses an optional integer query parameter into dst.
func queryInt(v string, dst *int) error {
	if v == "" {
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("invalid integer %q", v)
	}
	*dst = n
	return nil
}

// statusOf renders a job snapshot on the wire.
func statusOf(st jobqueue.Status) statusResponse {
	resp := statusResponse{
		ID:          st.ID,
		State:       st.State.String(),
		Method:      st.Method,
		Priority:    st.Priority,
		Components:  st.Components,
		Partitions:  st.Partitions,
		SubmittedAt: st.SubmittedAt.UTC().Format(time.RFC3339Nano),
	}
	if !st.StartedAt.IsZero() {
		resp.StartedAt = st.StartedAt.UTC().Format(time.RFC3339Nano)
	}
	if !st.FinishedAt.IsZero() {
		resp.FinishedAt = st.FinishedAt.UTC().Format(time.RFC3339Nano)
	}
	if out := st.Outcome; out != nil {
		if out.Err != "" {
			resp.Error = out.Err
		}
		if out.Assignment != nil {
			body := &resultBody{
				Assignment:       out.Assignment,
				Objective:        out.Objective,
				WireLength:       out.WireLength,
				Feasible:         out.Feasible,
				TimingViolations: out.TimingViolations,
				Stopped:          out.Stopped,
			}
			if s := out.Stats; s != nil {
				body.Stats = &statsBody{
					Starts:         s.Starts,
					Iterations:     s.Iterations,
					Restarts:       s.Restarts,
					EtaFull:        s.EtaFull,
					EtaIncremental: s.EtaIncremental,
					Density:        s.Density,
					NNZ:            s.NNZ,
				}
			}
			resp.Result = body
		}
	}
	return resp
}

// handleStatus reports one job.
func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.pool.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	writeJSON(w, http.StatusOK, statusOf(job.Status()))
}

// handleList reports every tracked job in submission order.
func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.pool.Jobs()
	out := make([]statusResponse, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, statusOf(j.Status()))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCancel cancels a job: queued jobs move straight to canceled,
// running jobs complete promptly with their best-so-far incumbent.
func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.pool.Cancel(id) {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	job, _ := s.pool.Job(id)
	writeJSON(w, http.StatusAccepted, statusOf(job.Status()))
}

// handleEvents streams a job's lifecycle as Server-Sent Events: `state`
// events on transitions, rate-limited `progress` events carrying the
// incumbent trajectory, and a final `done` event with the full status
// (including the result) before the stream closes.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.pool.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	events, stop := job.Subscribe(64)
	defer stop()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// Lead with the current state so late subscribers see where they are.
	writeSSE(w, "state", struct {
		State string `json:"state"`
	}{job.Status().State.String()})
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-events:
			if !open {
				// Terminal: one final event with the whole outcome.
				writeSSE(w, "done", statusOf(job.Status()))
				flusher.Flush()
				return
			}
			switch ev.Type {
			case jobqueue.EventState:
				writeSSE(w, "state", struct {
					State string `json:"state"`
				}{ev.State.String()})
			case jobqueue.EventProgress:
				pr := ev.Progress
				writeSSE(w, "progress", progressBody{
					Start:         pr.Start,
					Iteration:     pr.Iteration,
					Iterations:    pr.Iterations,
					BestPenalized: pr.BestPenalized,
					BestFeasible:  pr.BestFeasible,
					Restarts:      pr.Restarts,
					ElapsedMillis: pr.Elapsed.Milliseconds(),
				})
			}
			flusher.Flush()
		}
	}
}

// writeSSE emits one event in the SSE wire format. Marshalling the fixed
// payload shapes cannot fail; a dead connection surfaces on the next
// flush/write and ends the stream.
func writeSSE(w http.ResponseWriter, event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(`{"error":"encoding event"}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// handleHealthz reports liveness: 200 while serving, 503 once draining.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.pool.Metrics().Draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the pool snapshot in the Prometheus text
// exposition format, in a fixed deterministic order.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.pool.Metrics()
	var b bytes.Buffer

	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	hist := func(name, help string, h jobqueue.HistogramSnapshot) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		cum := uint64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(bound, 'g', -1, 64), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", name, h.Sum, name, h.Count)
	}

	gauge("qbpartd_queue_depth", "Jobs waiting to run.", m.QueueDepth)
	gauge("qbpartd_inflight", "Jobs currently solving.", m.InFlight)
	gauge("qbpartd_workers", "Worker goroutines in the solve pool.", m.Workers)
	gauge("qbpartd_queue_capacity", "Bound on queued jobs.", m.QueueCap)
	draining := 0
	if m.Draining {
		draining = 1
	}
	gauge("qbpartd_draining", "1 while the daemon is shutting down.", draining)
	counter("qbpartd_jobs_submitted_total", "Jobs admitted to the queue.", m.Submitted)
	counter("qbpartd_jobs_completed_total", "Jobs finished with a result.", m.Completed)
	counter("qbpartd_jobs_failed_total", "Jobs finished with an error.", m.Failed)
	counter("qbpartd_jobs_canceled_total", "Jobs canceled before producing a result.", m.Canceled)
	counter("qbpartd_jobs_stopped_total", "Completed jobs cut short by a deadline or cancellation (best-so-far results).", m.Stopped)
	counter("qbpartd_rejected_queue_full_total", "Submissions rejected by backpressure (429).", m.RejectedFull)
	counter("qbpartd_rejected_too_large_total", "Submissions rejected by the instance-size ceiling (413).", m.RejectedSize)
	hist("qbpartd_wait_seconds", "Queue wait latency (submission to solve start).", m.WaitSeconds)
	hist("qbpartd_solve_seconds", "Solve latency (start to finish).", m.SolveSeconds)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := w.Write(b.Bytes()); err != nil {
		return // client went away mid-scrape
	}
}
