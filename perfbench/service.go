package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
	"time"

	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/qbp"
	"repro/internal/textio"
)

// service-mix is an open loop against the qbpartd daemon: jobs arrive on a
// seeded exponential schedule whatever the daemon's state, so its queue can
// grow. Most jobs are small generated instances solved by QBP from a
// seeded random start, a minority are GFM jobs, and a few paper-size QBP
// jobs form a heavy tail; bodies alternate between the text and binary
// formats. It is the only workload with many small warm-scratch solves,
// queue waits, admission and HTTP, and it never touches multilevel.
//
// The run seed draws the arrival times only. The job list — which
// instance, method and solver seed each job has — is fixed, so every run
// solves the same jobs and the wire-length sum is comparable across seeds.

// Daemon and load shape: one client process with two HTTP connections
// (one submits, one collects) against a daemon with one worker. On a
// 2-core machine two workers would contend with each other and with the
// client for the cores, and every solve time would measure that contention.
const (
	daemonWorkers = 1
	daemonQueue   = 4096 // large enough that the ladder never meets admission control
	jobIterations = 10   // QBP iteration budget of every qbp job
	smallPool     = 48   // distinct small instances
	mixSeed       = 12   // fixes the job list
	poolSeed      = 1000 // fixes the small instances
	warmupJobs    = 4
)

// latencyLimit is the fixed limit on a step's tail latency (due time to
// the daemon's finished_at); jobTimeout is how long the benchmark waits
// for an answer before counting a timeout. A failed, refused or timed-out
// job counts as answered after jobTimeout, so it always misses the limit.
const (
	latencyLimit = 1000 * time.Millisecond
	jobTimeout   = 60 * time.Second
)

// rateStep is one rung of the ladder: jobs arrivals at rate per second.
type rateStep struct {
	rate float64
	jobs int
}

// ladderFor returns the ladder of a run with the given measuring time, from
// light load to beyond saturation: a short light step, a nominal step that
// fills the rest of the time, and a burst the daemon cannot keep up with.
// nominalStep is the step whose latencies are reported as p50_ms and
// tail_ms; it has at least 120 jobs, so its tail percentile is p90 or
// higher with at least ten samples beyond it. The nominal rate keeps the
// worker about 20% busy: a slow spell of the machine then lengthens the
// solves without also building a queue that multiplies their latency.
func ladderFor(seconds time.Duration) []rateStep {
	const nominalRate = 6
	nominal := max(120, int(nominalRate*(seconds-5*time.Second).Seconds())) // the other steps take about 5 s
	return []rateStep{{3, 6}, {nominalRate, nominal}, {128, 80}}
}

const nominalStep = 1

// referenceEvery selects the nominal step's jobs that are re-solved in
// process after the open loop (every referenceEvery-th job) to pin the
// fixed-seed determinism contract.
const referenceEvery = 8

// jobSpec is one request: which pooled instance, solver and seed.
type jobSpec struct {
	index    int
	method   string // "qbp" or "gfm"
	instance int    // index into the instance pool
	binary   bool   // body format
	seed     int64
}

// heavyCircuit is the Table I circuit of the paper-size jobs. One circuit,
// not all seven, keeps the heavy tail homogeneous: the nominal step's p95
// then falls inside the heavy jobs instead of on a boundary between
// circuits of different cost, where it would jump from run to run.
const heavyCircuit = "cktb"

// jobMix returns the fixed job list: two in every twelve jobs (17%, one
// of each body format) are paper-size QBP jobs (pool instance smallPool is
// heavyCircuit); of the rest, 22% (18% of all) are small GFM jobs and the
// others small QBP jobs. Spacing the heavy jobs evenly keeps their count in
// any stretch of the list, and with it the nominal step's tail, fixed.
func jobMix(n int) []jobSpec {
	rng := rand.New(rand.NewSource(mixSeed))
	out := make([]jobSpec, n)
	for k := range out {
		js := jobSpec{index: k, method: "qbp", instance: rng.Intn(smallPool), binary: k%2 == 1, seed: int64(k)}
		switch r := rng.Float64(); {
		case k%12 == 5 || k%12 == 8:
			js.instance = smallPool
		case r < 0.22:
			js.method = "gfm"
		}
		out[k] = js
	}
	return out
}

// schedule returns each step's due times as offsets from the step's start:
// exponential inter-arrivals at the step's rate, drawn from seed.
func schedule(seed int64, ladder []rateStep) [][]time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]time.Duration, len(ladder))
	for s, st := range ladder {
		var at float64
		for k := 0; k < st.jobs; k++ {
			at += rng.ExpFloat64() / st.rate
			out[s] = append(out[s], time.Duration(at*float64(time.Second)))
		}
	}
	return out
}

// pooled is one instance with both encodings of its problem.
type pooled struct {
	p            *model.Problem
	text, binary []byte
}

func (pi pooled) body(binary bool) []byte {
	if binary {
		return pi.binary
	}
	return pi.text
}

// servicePool generates the small instances (N 60–250, 6 wires and one
// timing constraint per component) and heavyCircuit, both encoded.
func servicePool() ([]pooled, error) {
	rng := rand.New(rand.NewSource(poolSeed))
	var specs []gen.Spec
	for i := 0; i < smallPool; i++ {
		n := 60 + rng.Intn(191)
		specs = append(specs, gen.Spec{Name: fmt.Sprintf("small%02d", i), Components: n, Wires: int64(6 * n), TimingConstraints: n, Seed: poolSeed + int64(i)})
	}
	for _, s := range gen.Paper {
		if s.Name == heavyCircuit {
			specs = append(specs, s)
		}
	}
	out := make([]pooled, len(specs))
	for i, s := range specs {
		in, err := gen.Generate(gen.Params{Spec: s})
		if err != nil {
			return nil, err
		}
		var text, bin bytes.Buffer
		if err := textio.WriteProblem(&text, in.Problem); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", s.Name, err)
		}
		if err := textio.WriteProblemBinary(&bin, in.Problem); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", s.Name, err)
		}
		out[i] = pooled{in.Problem, text.Bytes(), bin.Bytes()}
	}
	return out, nil
}

// daemon is a running qbpartd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// startDaemon launches qbpartd on a free loopback port and waits until its
// health check answers.
func startDaemon(ctx context.Context, path string, client *http.Client) (*daemon, error) {
	if path == "" {
		return nil, errors.New("no qbpartd binary given (-daemon)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(path, "-addr", addr, "-workers", strconv.Itoa(daemonWorkers),
		"-queue", strconv.Itoa(daemonQueue), "-grace", "10s")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting qbpartd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is reported by stop
		close(d.done)
	}()
	for deadline := time.Now().Add(20 * time.Second); ; {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, errors.New("qbpartd exited before answering its health check")
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("qbpartd did not answer its health check within 20s")
		}
	}
}

// stop sends SIGTERM (a graceful drain), kills the daemon if it has not
// exited after 15 s, and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// newClient returns an HTTP client held to a single connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// jobStatus is the subset of the daemon's job JSON the benchmark reads.
type jobStatus struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Error       string     `json:"error"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   time.Time  `json:"started_at"`
	FinishedAt  time.Time  `json:"finished_at"`
	Result      *jobResult `json:"result"`
}

// jobResult is a finished job's solution in the daemon's job JSON.
type jobResult struct {
	Assignment model.Assignment `json:"assignment"`
	Objective  int64            `json:"objective"`
	WireLength int64            `json:"wire_length"`
	Feasible   bool             `json:"feasible"`
	Stopped    bool             `json:"stopped"`
}

// jobRecord is one submitted job's timeline and outcome.
type jobRecord struct {
	spec             jobSpec
	due, sent, acked time.Time
	status           int // HTTP status of the submission
	fetch            time.Duration
	timedOut         bool
	err              error // transport error
	job              jobStatus
}

// failure classifies the job; failed is false for a job that returned a
// result.
func (r *jobRecord) failure() (k failKind, detail string, failed bool) {
	switch {
	case r.err != nil:
		return failError, r.err.Error(), true
	case r.status != http.StatusAccepted:
		return classifySubmit(r.status), fmt.Sprintf("submission answered %d", r.status), true
	case r.timedOut:
		return failTimeout, "no answer within " + jobTimeout.String(), true
	}
	k, failed = classifyJob(r.job.State, r.job.Error)
	if failed {
		return k, fmt.Sprintf("job %s %s: %s", r.job.ID, r.job.State, r.job.Error), true
	}
	if r.job.Result == nil || r.job.Result.Stopped {
		return failTimeout, fmt.Sprintf("job %s stopped early or returned no result", r.job.ID), true
	}
	return 0, "", false
}

// latency is the time from the job's due time to the daemon's finished_at;
// a job that failed, was refused or timed out counts as jobTimeout.
func (r *jobRecord) latency() time.Duration {
	if _, _, failed := r.failure(); failed {
		return jobTimeout
	}
	return r.job.FinishedAt.Sub(r.due)
}

// submit posts one job and records the acknowledgement.
func submit(ctx context.Context, c *http.Client, base string, body []byte, r *jobRecord) {
	url := fmt.Sprintf("%s/jobs?method=%s&iterations=%d&seed=%d", base, r.spec.method, jobIterations, r.spec.seed)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	r.sent = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&r.job)
	r.acked = time.Now()
	if err != nil && r.status == http.StatusAccepted {
		r.err = fmt.Errorf("decoding submission answer: %w", err)
	}
}

// await waits for the job to end (its event stream closes after the final
// event), then fetches its status with the result.
func await(ctx context.Context, c *http.Client, base string, r *jobRecord) {
	wctx, cancel := context.WithDeadline(ctx, r.due.Add(jobTimeout))
	defer cancel()
	req, err := http.NewRequestWithContext(wctx, http.MethodGet, base+"/jobs/"+r.job.ID+"/events", nil)
	if err != nil {
		r.err = err
		return
	}
	resp, err := c.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		if wctx.Err() != nil && ctx.Err() == nil {
			r.timedOut = true
			return
		}
		r.err = err
		return
	}
	t0 := time.Now()
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+r.job.ID, nil)
	if err != nil {
		r.err = err
		return
	}
	resp, err = c.Do(req)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&r.job); err != nil {
		r.err = fmt.Errorf("decoding job status: %w", err)
	}
	r.fetch = time.Since(t0)
}

// openLoop runs one ladder step: one goroutine submits each job at its due
// time, whatever the daemon's state; the other awaits the submitted jobs
// in order. It returns once every job is answered or timed out.
func openLoop(ctx context.Context, sender, collector *http.Client, base string, pool []pooled, jobs []jobSpec, offsets []time.Duration) []*jobRecord {
	recs := make([]*jobRecord, len(jobs))
	queue := make(chan *jobRecord, len(jobs)) // one slot per job: the sender never blocks on the collector
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range queue {
			if r.err == nil && r.status == http.StatusAccepted {
				await(ctx, collector, base, r)
			}
		}
	}()
	start := time.Now()
	for k, js := range jobs {
		r := &jobRecord{spec: js, due: start.Add(offsets[k])}
		recs[k] = r
		if wait := time.Until(r.due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		submit(ctx, sender, base, pool[js.instance].body(js.binary), r)
		queue <- r
	}
	close(queue)
	<-done
	return recs
}

// stepResult is one ladder step's verdict.
type stepResult struct {
	rate       float64
	latencies  []float64 // ms
	tailPct    float64
	tail, p50  float64
	backlog    int // jobs still unanswered when the step's last job was due
	meetsLimit bool
}

// backlogLimit is the most unanswered jobs a step may leave at its last
// due time and still count as keeping up; a queue that grows through the
// step exceeds it.
const backlogLimit = 20

// judgeStep applies the latency limit: the step's tail latency must meet it
// with no growing backlog.
func judgeStep(rate float64, recs []*jobRecord) stepResult {
	sr := stepResult{rate: rate}
	var lastDue time.Time
	for _, r := range recs {
		sr.latencies = append(sr.latencies, ms(r.latency()))
		if r.due.After(lastDue) {
			lastDue = r.due
		}
	}
	for _, r := range recs {
		answered := r.job.FinishedAt // set for failed jobs too
		if r.err != nil || r.status != http.StatusAccepted || answered.IsZero() || answered.After(lastDue) {
			sr.backlog++
		}
	}
	sr.tailPct, sr.tail = tail(sr.latencies)
	sr.p50 = median(sr.latencies)
	sr.meetsLimit = sr.tail <= ms(latencyLimit) && sr.backlog <= backlogLimit
	return sr
}

func runService(ctx context.Context, cfg config) (*report, error) {
	ladder := ladderFor(cfg.seconds)
	var total int
	for _, st := range ladder {
		total += st.jobs
	}
	jobs := jobMix(total)
	offsets := schedule(cfg.seed, ladder)
	sender, collector := newClient(), newClient()
	defer sender.CloseIdleConnections()
	defer collector.CloseIdleConnections()

	var pool []pooled
	var d *daemon
	stopDaemon := func() {
		if d != nil {
			d.stop()
			d = nil
		}
	}
	defer stopDaemon()
	setup, err := timeReps(setupReps, func() error {
		stopDaemon()
		var err error
		if pool, err = servicePool(); err != nil {
			return err
		}
		if d, err = startDaemon(ctx, cfg.daemon, sender); err != nil {
			return err
		}
		warm := make([]time.Duration, warmupJobs)
		recs := openLoop(ctx, sender, collector, d.base, pool, jobs[:warmupJobs], warm)
		for _, r := range recs {
			if _, detail, failed := r.failure(); failed && r.job.State != "failed" {
				return fmt.Errorf("warm-up job: %s", detail)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The open loop, step by step; each step starts once the previous
	// one's jobs are all answered.
	t := &tally{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("service-mix/seed%d", cfg.seed))
	}
	var steps []stepResult
	var recs []*jobRecord
	off := 0
	for s, st := range ladder {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stepRecs := openLoop(ctx, sender, collector, d.base, pool, jobs[off:off+st.jobs], offsets[s])
		off += st.jobs
		steps = append(steps, judgeStep(st.rate, stepRecs))
		recs = append(recs, stepRecs...)
	}
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	stopDaemon()

	// Outside the timed window: validate every result, then re-solve the
	// reference subset in process and compare assignments.
	var wireLength int64
	for _, r := range recs {
		t.attempted++
		k, detail, failed := r.failure()
		if failed {
			t.fail(k, detail)
			continue
		}
		res := r.job.Result
		id := tr.open("validate.check", 0)
		if checkResult(t, "job "+r.job.ID, pool[r.spec.instance].p, res.Assignment, res.Objective, res.WireLength, res.Feasible) {
			wireLength += res.WireLength
		}
		tr.close(id)
	}
	nominalFrom := 0
	for s := 0; s < nominalStep; s++ {
		nominalFrom += ladder[s].jobs
	}
	nominal := recs[nominalFrom : nominalFrom+ladder[nominalStep].jobs]
	var ref []*jobRecord
	for k, r := range nominal {
		if k%referenceEvery == 0 {
			ref = append(ref, r)
		}
	}
	// The daemon's per-job solve times over every step: with one worker a
	// solve never shares the worker, so the overload step's solves are as
	// valid a sample as the light step's, and using them all spreads the
	// samples over the whole run.
	var solveQBP, solveGFM []float64 // s
	for _, r := range recs {
		if j := r.job; j.State == "done" && !j.StartedAt.IsZero() && !j.FinishedAt.IsZero() {
			d := j.FinishedAt.Sub(j.StartedAt).Seconds()
			if r.spec.method == "gfm" {
				solveGFM = append(solveGFM, d)
			} else {
				solveQBP = append(solveQBP, d)
			}
		}
	}

	if !cfg.trace {
		referencePass(ctx, pool, ref, t, nil)
		nom := steps[nominalStep]
		maxRate := 0.0
		var notes []string
		for _, sr := range steps {
			if sr.meetsLimit {
				maxRate = sr.rate
			}
			notes = append(notes, fmt.Sprintf("step %g/s: %d jobs, p50 %.1f ms, %s %.1f ms, backlog %d, meets %v ms limit %v",
				sr.rate, len(sr.latencies), sr.p50, tailLabel(sr.tailPct), sr.tail, sr.backlog, latencyLimit.Milliseconds(), sr.meetsLimit))
		}
		return &report{
			metrics: map[string]metric{
				"setup_s":       {setup, "s"},
				"solve_s":       {median(solveQBP), "s"},
				"baseline_s":    {median(solveGFM), "s"},
				"p50_ms":        {nom.p50, "ms"},
				"tail_ms":       {nom.tail, "ms"},
				"max_rate":      {maxRate, "1/s"},
				"wirelength":    {float64(wireLength), "count"},
				"success_share": {t.successShare(), "share"},
				"peak_rss_mb":   {rss, "MB"},
			},
			tally: t,
			notes: append(notes, t.notes()...),
		}, nil
	}

	plain := referencePass(ctx, pool, ref, t, nil)
	traced := referencePass(ctx, pool, ref, t, tr)
	derived := map[string]float64{}
	serviceSpans(tr, recs, derived)
	solverDerived(tr, derived)
	replaySTEP4(ctx, tr, traced.probes, derived)
	overhead := (traced.qbp+traced.gfm).Seconds()/(plain.qbp+plain.gfm).Seconds() - 1
	lines, err := finishTrace(cfg, tr, t, []string{"service.job", "service.reference", "qbp.solve"}, overhead, derived)
	if err != nil {
		return nil, err
	}
	return &report{metrics: layerMetrics(tr, 1, derived), tally: t, notes: append(lines, t.notes()...)}, nil
}

// serviceSpans records each answered job's timeline as spans — the
// generator's lag, the submission, the queue wait and the solve, under a
// job span from due time to finished_at — and derives the queue and HTTP
// per-layer metrics from the same timestamps.
func serviceSpans(tr *tracer, recs []*jobRecord, derived map[string]float64) {
	var wait, solve, submitT, fetch, lag []float64
	rejected, failedJobs := 0, 0
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		lag = append(lag, ms(r.sent.Sub(r.due)))
		if r.status != http.StatusAccepted {
			rejected++
			continue
		}
		submitT = append(submitT, ms(r.acked.Sub(r.sent)))
		if r.timedOut || r.job.FinishedAt.IsZero() {
			continue
		}
		if r.job.State != "done" {
			failedJobs++
		}
		j := r.job
		root := tr.add("service.job", 0, r.due, j.FinishedAt)
		tr.add("bench.send_lag", root, r.due, r.sent)
		tr.add("qbpartd.submit", root, r.sent, r.acked)
		if !j.StartedAt.IsZero() {
			tr.add("jobqueue.wait", root, j.SubmittedAt, j.StartedAt)
			tr.add("jobqueue.solve", root, j.StartedAt, j.FinishedAt)
			wait = append(wait, ms(j.StartedAt.Sub(j.SubmittedAt)))
			solve = append(solve, ms(j.FinishedAt.Sub(j.StartedAt)))
		}
		if r.fetch > 0 {
			fetch = append(fetch, ms(r.fetch))
		}
	}
	derived["jobqueue.wait_p50_ms"] = median(wait)
	derived["jobqueue.wait_p95_ms"] = percentile(wait, 95)
	derived["jobqueue.solve_p50_ms"] = median(solve)
	derived["jobqueue.solve_p95_ms"] = percentile(solve, 95)
	derived["jobqueue.rejected"] = float64(rejected)
	derived["jobqueue.failed"] = float64(failedJobs)
	derived["qbpartd.submit_p50_ms"] = median(submitT)
	derived["qbpartd.fetch_ms"] = median(fetch)
	_, derived["bench.generator_lag_ms"] = tail(lag)
}

// refResult is the in-process reference pass: wall time of the QBP and the
// GFM jobs' paths from body bytes to validated, encoded assignment.
type refResult struct {
	qbp, gfm time.Duration
	probes   []probe
}

// referencePass re-solves the reference jobs in process with the daemon's
// exact solver calls and checks that each reproduces the daemon's answer:
// the same assignment, or the same failure.
func referencePass(ctx context.Context, pool []pooled, ref []*jobRecord, t *tally, tr *tracer) refResult {
	var rr refResult
	for _, r := range ref {
		t.attempted++
		id := tr.open("service.reference", 0)
		t0 := time.Now()
		a, p, err := referenceSolve(ctx, pool[r.spec.instance].body(r.spec.binary), r.spec, t, tr, id)
		d := time.Since(t0)
		tr.close(id)
		if r.spec.method == "gfm" {
			rr.gfm += d
		} else {
			rr.qbp += d
		}
		k, detail, failed := r.failure()
		switch {
		case err != nil && failed:
			t.fail(k, "reference: "+err.Error()) // failed in process as in the daemon
		case err != nil:
			t.fail(failCheck, fmt.Sprintf("job %d: in process %v; daemon: %s", r.spec.index, err, detail))
		case failed:
			t.fail(failCheck, fmt.Sprintf("job %d: solved in process; daemon: %s", r.spec.index, detail))
		case !slices.Equal(a, r.job.Result.Assignment):
			t.fail(failCheck, fmt.Sprintf("job %d (%s, seed %d): in-process assignment differs from the daemon's", r.spec.index, r.spec.method, r.spec.seed))
		case r.spec.method == "qbp":
			rr.probes = append(rr.probes, probe{p, a})
		}
	}
	return rr
}

// referenceSolve mirrors the daemon's solve for one job: decode the body,
// run qbp.Solve (or FeasibleStart + fm.Solve for gfm), validate, encode.
func referenceSolve(ctx context.Context, body []byte, js jobSpec, t *tally, tr *tracer, parent int) (model.Assignment, *model.Problem, error) {
	id := tr.open("textio.decode", parent)
	p, err := textio.ReadProblemAuto(bytes.NewReader(body))
	tr.close(id)
	if err != nil {
		return nil, nil, fmt.Errorf("decode: %w", err)
	}
	var a model.Assignment
	var objective, wireLength int64
	feasible := true
	if js.method == "gfm" {
		id = tr.open("qbp.start", parent)
		start, err := qbp.FeasibleStart(ctx, p, js.seed, 40)
		tr.close(id)
		if err != nil {
			return nil, nil, err
		}
		var fr *fm.Result
		allocated(tr, "fm", func() {
			id = tr.open("fm.solve", parent)
			fr, err = fm.Solve(ctx, p, start, fm.Options{})
			tr.close(id)
		})
		if err != nil {
			return nil, nil, err
		}
		a, objective, wireLength = fr.Assignment, fr.Objective, fr.WireLength
	} else {
		var res *qbp.Result
		allocated(tr, "qbp", func() {
			id = tr.open("qbp.solve", parent)
			res, err = qbp.Solve(ctx, p, qbp.Options{Iterations: jobIterations, Seed: js.seed})
			tr.close(id)
		})
		if err != nil {
			return nil, nil, err
		}
		recordQBP(tr, id, res.Stats)
		a, objective, wireLength, feasible = res.Assignment, res.Objective, res.WireLength, res.Feasible
	}
	id = tr.open("validate.check", parent)
	checkResult(t, fmt.Sprintf("job %d in process", js.index), p, a, objective, wireLength, feasible)
	tr.close(id)
	id = tr.open("textio.encode", parent)
	var out bytes.Buffer
	if js.binary {
		err = textio.WriteAssignmentBinary(&out, a)
	} else {
		err = textio.WriteAssignment(&out, a)
	}
	tr.close(id)
	return a, p, err
}
