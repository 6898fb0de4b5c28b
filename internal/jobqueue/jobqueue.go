// Package jobqueue is the partitioning service's execution engine: a
// bounded, priority-ordered job queue drained by a fixed pool of worker
// goroutines, each holding one warm solver scratch (safe because the QBP
// solver owns and rebuilds its scratch at every solve entry). It provides
// the daemon's semantics — admission control by instance size,
// backpressure when the queue is full, per-job deadlines and cancellation
// through the solvers' context contract, progress-event streams, and a
// graceful drain that completes in-flight jobs with their best-so-far
// incumbents.
//
// Determinism is the standing contract: a job with a fixed seed produces
// the identical assignment regardless of the pool's worker count, the
// queue order, or which warm scratch it lands on — each job is one
// self-contained deterministic solve; the pool only decides when it runs.
package jobqueue

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/anneal"
	"repro/internal/fm"
	"repro/internal/kl"
	"repro/internal/qbp"
	"repro/internal/validate"
)

// Submission errors, distinguished so the HTTP layer can map them to
// status codes (429, 413, 503, 400).
var (
	// ErrQueueFull reports backpressure: the bounded queue is at
	// capacity and the job was not admitted.
	ErrQueueFull = errors.New("jobqueue: queue full")
	// ErrTooLarge reports admission control: the instance exceeds the
	// pool's configured size ceiling.
	ErrTooLarge = errors.New("jobqueue: instance too large")
	// ErrDraining reports the pool is shutting down and accepts no new
	// work.
	ErrDraining = errors.New("jobqueue: pool is draining")
	// ErrUnknownMethod reports an unrecognized Request.Method.
	ErrUnknownMethod = errors.New("jobqueue: unknown method")
	// ErrNoProblem reports a Request without an instance.
	ErrNoProblem = errors.New("jobqueue: request has no problem")
)

// Config tunes a Pool. The zero value is serviceable: GOMAXPROCS workers,
// a 64-job queue, no size ceiling, no default deadline.
type Config struct {
	// Workers is the number of concurrent solves; ≤ 0 means GOMAXPROCS.
	Workers int
	// QueueCap bounds the number of queued (not yet running) jobs;
	// ≤ 0 means 64. Submissions beyond it fail with ErrQueueFull.
	QueueCap int
	// MaxComponents rejects instances with more components at admission;
	// ≤ 0 disables the ceiling.
	MaxComponents int
	// DefaultDeadline is applied to jobs that request none; 0 means
	// unbounded.
	DefaultDeadline time.Duration
	// MaxDeadline caps every job's deadline; 0 means no cap.
	MaxDeadline time.Duration
	// ProgressInterval rate-limits each job's progress events; ≤ 0 means
	// 50ms. Terminal state events are never rate-limited.
	ProgressInterval time.Duration
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 50 * time.Millisecond
	}
	return c
}

// Pool runs jobs on a fixed set of worker goroutines. Create one with New,
// stop it with Shutdown.
type Pool struct {
	cfg Config

	// mu is the single lock: it guards the queue, the job registry,
	// every job's state transition, and the metrics counters, so any
	// snapshot taken under it is one consistent view of the service.
	mu        sync.Mutex
	cond      *sync.Cond // signaled on enqueue and on drain
	pq        jobHeap
	queued    int // live (not cancelled) queued jobs
	inflight  int
	jobs      map[string]*Job
	byArrival []*Job
	seq       uint64
	draining  bool

	met metricsState

	wg sync.WaitGroup
}

// New starts a pool with cfg's workers running.
func New(cfg Config) *Pool {
	p := &Pool{
		cfg:  cfg.withDefaults(),
		jobs: make(map[string]*Job),
	}
	p.cond = sync.NewCond(&p.mu)
	p.met.init()
	for w := 0; w < p.cfg.Workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.worker()
		}()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.cfg.Workers }

// QueueCap returns the pool's queue capacity.
func (p *Pool) QueueCap() int { return p.cfg.QueueCap }

// Submit admits a job, or reports why it cannot: ErrNoProblem /
// ErrUnknownMethod (bad request), ErrTooLarge (admission control),
// ErrQueueFull (backpressure), ErrDraining (shutdown), or the problem's
// own validation error. Admission is O(log queue) and never blocks on
// solving.
func (p *Pool) Submit(req Request) (*Job, error) {
	if req.Problem == nil {
		return nil, ErrNoProblem
	}
	if err := req.Problem.Validate(); err != nil {
		return nil, fmt.Errorf("jobqueue: invalid problem: %w", err)
	}
	method := req.Method
	if method == "" {
		method = "qbp"
	}
	switch method {
	case "qbp", "gfm", "gkl", "sa":
	default:
		return nil, fmt.Errorf("%w %q (want qbp, gfm, gkl or sa)", ErrUnknownMethod, req.Method)
	}
	if req.Deadline <= 0 {
		req.Deadline = p.cfg.DefaultDeadline
	}
	if p.cfg.MaxDeadline > 0 && (req.Deadline <= 0 || req.Deadline > p.cfg.MaxDeadline) {
		req.Deadline = p.cfg.MaxDeadline
	}
	return p.admit(req, method)
}

// admit is Submit's locked half: capacity checks and enqueueing.
func (p *Pool) admit(req Request, method string) (*Job, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return nil, ErrDraining
	}
	if n := req.Problem.N(); p.cfg.MaxComponents > 0 && n > p.cfg.MaxComponents {
		p.met.rejectedSize++
		return nil, fmt.Errorf("%w: %d components exceeds the pool ceiling %d", ErrTooLarge, n, p.cfg.MaxComponents)
	}
	if p.queued >= p.cfg.QueueCap {
		p.met.rejectedFull++
		return nil, fmt.Errorf("%w: %d jobs queued (capacity %d)", ErrQueueFull, p.queued, p.cfg.QueueCap)
	}

	p.seq++
	j := &Job{
		id:        fmt.Sprintf("job-%d", p.seq),
		seq:       p.seq,
		priority:  req.Priority,
		method:    method,
		req:       req,
		pool:      p,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	heap.Push(&p.pq, j)
	p.queued++
	p.jobs[j.id] = j
	p.byArrival = append(p.byArrival, j)
	p.met.submitted++
	p.cond.Signal()
	return j, nil
}

// Job looks a job up by ID.
func (p *Pool) Job(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	return j, ok
}

// Jobs returns every tracked job in submission order.
func (p *Pool) Jobs() []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Job(nil), p.byArrival...)
}

// Cancel cancels a job: a queued job moves to Canceled without running; a
// running job's context is cancelled, so its solve completes promptly with
// the best-so-far incumbent (StateDone, Outcome.Stopped). Returns false
// when the ID is unknown; cancelling an already-terminal job is a no-op
// reporting true.
func (p *Pool) Cancel(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return false
	}
	p.cancelLocked(j, "canceled before start")
	return true
}

// cancelLocked implements Cancel and the drain path under pool.mu.
func (p *Pool) cancelLocked(j *Job, queuedReason string) {
	switch j.state {
	case StateQueued:
		p.queued--
		p.met.canceled++
		j.finishLocked(StateCanceled, &Outcome{Err: queuedReason}, time.Now())
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// Shutdown drains the pool: submissions start failing with ErrDraining,
// queued jobs are cancelled, running jobs' contexts are cancelled so each
// solve completes promptly with its best-so-far incumbent, and the workers
// exit. It returns nil once every worker has drained, or ctx.Err() when
// ctx expires first (workers keep draining in the background). Shutdown is
// idempotent.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	p.draining = true
	for _, j := range p.byArrival {
		if !j.state.Terminal() {
			p.cancelLocked(j, "canceled: pool shutting down")
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		p.wg.Wait()
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker drains the queue until the pool shuts down. Each worker owns one
// warm scratch holder reused across every QBP job it runs — the daemon's
// answer to per-request solver allocations.
func (p *Pool) worker() {
	warm := &qbp.Scratch{}
	for {
		j := p.next()
		if j == nil {
			return
		}
		p.run(j, warm)
	}
}

// next blocks until a runnable job is available (returning it in the
// Running state) or the pool is draining with nothing left (returning
// nil). Cancelled-while-queued jobs left in the heap are skipped.
func (p *Pool) next() *Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for p.pq.Len() > 0 {
			j := heap.Pop(&p.pq).(*Job)
			if j.state != StateQueued {
				continue // cancelled while queued; already terminal
			}
			p.queued--
			p.inflight++
			j.state = StateRunning
			j.started = time.Now()
			p.met.waitSeconds.observe(j.started.Sub(j.submitted).Seconds())
			j.publishLocked(Event{Type: EventState, State: StateRunning})
			return j
		}
		if p.draining {
			return nil
		}
		p.cond.Wait()
	}
}

// run executes one job and records its terminal state.
func (p *Pool) run(j *Job, warm *qbp.Scratch) {
	ctx, cancel := context.WithCancel(context.Background())
	solveCtx := ctx
	var cancelDeadline context.CancelFunc
	if j.req.Deadline > 0 {
		solveCtx, cancelDeadline = context.WithTimeout(ctx, j.req.Deadline)
	}
	p.mu.Lock()
	j.cancel = cancel
	draining := p.draining
	p.mu.Unlock()
	if draining {
		// The job left the queue after the drain's cancel sweep: cancel it
		// here so it still completes promptly with best-so-far.
		cancel()
	}

	out, state := p.solve(solveCtx, j, warm)
	if cancelDeadline != nil {
		cancelDeadline()
	}
	cancel()

	finished := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inflight--
	p.met.solveSeconds.observe(finished.Sub(j.started).Seconds())
	switch state {
	case StateDone:
		p.met.completed++
		if out.Stopped {
			p.met.stopped++
		}
	case StateFailed:
		p.met.failed++
	case StateCanceled:
		p.met.canceled++
	}
	j.finishLocked(state, out, finished)
}

// solve runs the requested solver under the job's context and folds the
// result into an Outcome. A context hit before any incumbent exists maps
// to StateCanceled; a mid-solve stop is a StateDone with Stopped set (the
// solvers' best-so-far contract).
func (p *Pool) solve(ctx context.Context, j *Job, warm *qbp.Scratch) (*Outcome, State) {
	req := j.req
	progress := p.progressRelay(j)

	var (
		assignment []int
		stopped    bool
		stats      *qbp.SolveStats
		err        error
	)
	switch j.method {
	case "qbp":
		opts := qbp.Options{
			Iterations:  req.Iterations,
			Seed:        req.Seed,
			RelaxTiming: req.RelaxTiming,
			OnProgress:  progress,
		}
		if req.MultiStart > 1 {
			// SolveMultiStart's workers each own a scratch; the warm
			// holder stays reserved for single-start jobs.
			var res *qbp.Result
			res, err = qbp.SolveMultiStart(ctx, req.Problem, qbp.MultiStartOptions{
				Base: opts, Starts: req.MultiStart,
			})
			if err == nil {
				assignment, stopped, stats = res.Assignment, res.Stopped, &res.Stats
			}
		} else {
			opts.Scratch = warm
			var res *qbp.Result
			res, err = qbp.Solve(ctx, req.Problem, opts)
			if err == nil {
				assignment, stopped, stats = res.Assignment, res.Stopped, &res.Stats
			}
		}
	case "gfm", "gkl", "sa":
		var start []int
		start, err = qbp.FeasibleStart(ctx, req.Problem, req.Seed, 40)
		if err != nil {
			err = fmt.Errorf("generating feasible start: %w", err)
			break
		}
		switch j.method {
		case "gfm":
			var res *fm.Result
			res, err = fm.Solve(ctx, req.Problem, start, fm.Options{RelaxTiming: req.RelaxTiming})
			if err == nil {
				assignment, stopped = res.Assignment, res.Stopped
			}
		case "gkl":
			var res *kl.Result
			res, err = kl.Solve(ctx, req.Problem, start, kl.Options{RelaxTiming: req.RelaxTiming})
			if err == nil {
				assignment, stopped = res.Assignment, res.Stopped
			}
		case "sa":
			var res *anneal.Result
			res, err = anneal.Solve(ctx, req.Problem, anneal.Options{
				Initial: start, RelaxTiming: req.RelaxTiming, Seed: req.Seed,
			})
			if err == nil {
				assignment, stopped = res.Assignment, res.Stopped
			}
		}
	}

	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return &Outcome{Err: "canceled before a solution existed", Stopped: true}, StateCanceled
		}
		return &Outcome{Err: err.Error()}, StateFailed
	}

	report, verr := validate.Check(req.Problem, assignment)
	if verr != nil {
		return &Outcome{Err: fmt.Sprintf("validating result: %v", verr)}, StateFailed
	}
	return &Outcome{
		Assignment:       assignment,
		Objective:        report.Objective,
		WireLength:       report.WireLength,
		Feasible:         report.Feasible,
		TimingViolations: len(report.TimingViolations),
		Stopped:          stopped,
		Stats:            stats,
	}, StateDone
}

// progressRelay adapts the solver's OnProgress callback into the job's
// event stream, rate-limited to the pool's ProgressInterval. The callback
// runs concurrently from every multistart worker, so the limiter is
// locked.
func (p *Pool) progressRelay(j *Job) func(qbp.Progress) {
	var mu sync.Mutex
	var last time.Time
	return func(pr qbp.Progress) {
		mu.Lock()
		now := time.Now()
		if now.Sub(last) < p.cfg.ProgressInterval {
			mu.Unlock()
			return
		}
		last = now
		mu.Unlock()
		p.mu.Lock()
		j.publishLocked(Event{Type: EventProgress, Progress: pr})
		p.mu.Unlock()
	}
}

// jobHeap orders queued jobs by descending priority, ties by submission
// sequence — a deterministic total order, so two pools fed the same
// submissions drain in the same order.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	if h[a].priority != h[b].priority {
		return h[a].priority > h[b].priority
	}
	return h[a].seq < h[b].seq
}
func (h jobHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }

// Push implements heap.Interface.
func (h *jobHeap) Push(x any) { *h = append(*h, x.(*Job)) }

// Pop implements heap.Interface.
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
