package jobqueue

import (
	"context"
	"time"

	"repro/internal/model"
	"repro/internal/qbp"
)

// State is a job's position in its lifecycle. Transitions are
// Queued → Running → one of {Done, Failed}, or Queued/Running → Canceled
// (a cancelled *running* solve still lands in Done: the solver's
// cancellation contract returns the best-so-far incumbent with Stopped set,
// which is a result, not an absence of one; Canceled is reserved for jobs
// that never produced anything — cancelled before starting, or preempted so
// early the solver had no incumbent).
type State int

// Job lifecycle states.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
)

// String returns the wire spelling used by the HTTP API and /metrics.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	}
	return "unknown"
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Request describes one solve job. The zero value of every knob means "the
// solver's default"; Deadline is clamped to the pool's MaxDeadline and
// defaulted from DefaultDeadline at submission.
type Request struct {
	// Problem is the instance to partition (required, pre-validated at
	// submission).
	Problem *model.Problem
	// Method selects the solver: "qbp" (default), "gfm", "gkl" or "sa".
	Method string
	// Iterations is the QBP iteration budget (qbp only; ≤ 0 = default).
	Iterations int
	// MultiStart runs this many independent seeded QBP starts (qbp only;
	// ≤ 1 = single start).
	MultiStart int
	// Seed drives every randomized choice; a fixed seed reproduces the
	// identical assignment regardless of pool size or queue order.
	Seed int64
	// RelaxTiming drops the timing constraints (Table II mode).
	RelaxTiming bool
	// Deadline is the per-job wall-clock budget, measured from solve
	// start (not from submission); at expiry the job completes with its
	// best-so-far incumbent and Stopped set. 0 means the pool default.
	Deadline time.Duration
	// Priority orders the queue: higher runs first, ties in submission
	// order.
	Priority int
}

// Outcome is a finished job's result. For StateDone every solution field
// is populated; for StateFailed and StateCanceled only Err is.
type Outcome struct {
	// Assignment is the solution (component → partition).
	Assignment model.Assignment
	// Objective is α·linear + β·quadratic of Assignment.
	Objective int64
	// WireLength is the single-direction wire cost.
	WireLength int64
	// Feasible reports capacity + timing feasibility.
	Feasible bool
	// TimingViolations counts violated timing constraints.
	TimingViolations int
	// Stopped reports the solve ended at its deadline or on cancellation
	// and Assignment is the best incumbent found before the stop.
	Stopped bool
	// Stats is the QBP solve telemetry (nil for the other methods).
	Stats *qbp.SolveStats
	// Err is the failure description (StateFailed/StateCanceled only).
	Err string
}

// EventType tags a progress-stream event.
type EventType int

// Progress-stream event types.
const (
	// EventState reports a lifecycle transition (Event.State).
	EventState EventType = iota
	// EventProgress reports a solver telemetry snapshot (Event.Progress).
	EventProgress
)

// Event is one entry of a job's progress stream.
type Event struct {
	Type     EventType
	State    State
	Progress qbp.Progress
}

// Job is one submitted solve tracked by a Pool. All methods are safe for
// concurrent use.
type Job struct {
	id       string
	seq      uint64
	priority int
	method   string
	req      Request

	pool *Pool

	// Guarded by pool.mu (the pool's single lock also orders every job
	// state transition, keeping the queue counters and job states in one
	// consistent view; see Pool).
	state     State
	outcome   *Outcome
	cancel    context.CancelFunc // set while running
	submitted time.Time
	started   time.Time
	finished  time.Time
	subs      []chan Event

	// done is closed on the transition to a terminal state.
	done chan struct{}
}

// Status is a point-in-time snapshot of a job.
type Status struct {
	// ID is the pool-assigned job identifier.
	ID string
	// State is the lifecycle state at snapshot time.
	State State
	// Method is the resolved solver name.
	Method string
	// Priority is the queue priority the job was submitted with.
	Priority int
	// Components and Partitions are the instance dimensions.
	Components, Partitions int
	// SubmittedAt, StartedAt and FinishedAt are the lifecycle timestamps
	// (zero until reached).
	SubmittedAt, StartedAt, FinishedAt time.Time
	// Outcome is the result; nil until the job reaches a terminal state.
	Outcome *Outcome
}

// ID returns the pool-assigned identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns a consistent snapshot of the job.
func (j *Job) Status() Status {
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	return Status{
		ID:          j.id,
		State:       j.state,
		Method:      j.method,
		Priority:    j.priority,
		Components:  j.req.Problem.N(),
		Partitions:  j.req.Problem.M(),
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Outcome:     j.outcome,
	}
}

// Subscribe attaches a buffered progress stream to the job. Events are
// delivered best-effort: a subscriber that falls behind loses intermediate
// progress snapshots, never the stream itself — the channel is closed when
// the job reaches a terminal state, and the final Status always carries the
// outcome. The returned stop function detaches the subscriber (the channel
// is then abandoned, not closed). Subscribing to an already-terminal job
// returns an immediately-closed channel.
func (j *Job) Subscribe(buf int) (<-chan Event, func()) {
	if buf < 1 {
		buf = 16
	}
	ch := make(chan Event, buf)
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}
	}
	j.subs = append(j.subs, ch)
	stop := func() {
		j.pool.mu.Lock()
		defer j.pool.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				return
			}
		}
	}
	return ch, stop
}

// publishLocked fans an event out to every subscriber without blocking:
// a full buffer drops the event for that subscriber. Callers hold pool.mu.
func (j *Job) publishLocked(ev Event) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finishLocked moves the job to a terminal state, records the outcome,
// notifies and detaches every subscriber, and closes Done. Callers hold
// pool.mu; the transition is a no-op when the job is already terminal.
func (j *Job) finishLocked(state State, out *Outcome, at time.Time) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.outcome = out
	j.finished = at
	j.cancel = nil
	j.publishLocked(Event{Type: EventState, State: state})
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	close(j.done)
}
