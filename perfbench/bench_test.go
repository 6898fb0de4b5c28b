package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending input: tail must sort
		}
		return xs
	}
	cases := []struct {
		n         int
		wantPct   float64
		wantValue float64
	}{
		{0, 0, 0},
		{7, 100, 7},     // too few samples for any percentile: the maximum
		{19, 100, 19},   // p50 would leave 9 beyond
		{20, 50, 10},    // p50 = rank 10, 10 beyond
		{40, 75, 30},    // p75 = rank 30, 10 beyond; p90 would leave 4
		{200, 95, 190},  // p95 = rank 190, 10 beyond
		{199, 90, 180},  // p95 = rank 190 leaves 9: fall back to p90
		{1000, 99, 990}, // p99 = rank 990, 10 beyond
		{10000, 99.9, 9990},
	}
	for _, c := range cases {
		pct, v := tail(seq(c.n))
		if pct != c.wantPct || v != c.wantValue {
			t.Errorf("tail of %d samples = (p%g, %g), want (p%g, %g)", c.n, pct, v, c.wantPct, c.wantValue)
		}
		if c.n > 0 && pct < 100 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("tail of %d samples: only %d samples beyond p%g", c.n, beyond, pct)
			}
		}
	}
	if got := tailLabel(100); got != "max" {
		t.Errorf("tailLabel(100) = %q, want max", got)
	}
	if got := tailLabel(99.9); got != "p99.9" {
		t.Errorf("tailLabel(99.9) = %q, want p99.9", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// The open loop's arrivals are a function of the seed alone.
func TestScheduleIsByteIdenticalForASeed(t *testing.T) {
	ladder := ladderFor(30 * time.Second)
	enc := func(seed int64) string { return fmt.Sprint(schedule(seed, ladder)) }
	if a, b := enc(7), enc(7); a != b {
		t.Fatal("two schedules for seed 7 differ")
	}
	if enc(7) == enc(8) {
		t.Fatal("seeds 7 and 8 give the same schedule")
	}
	s := schedule(7, ladder)
	if len(s) != len(ladder) {
		t.Fatalf("schedule has %d steps, want %d", len(s), len(ladder))
	}
	for i, st := range ladder {
		if len(s[i]) != st.jobs {
			t.Errorf("step %d has %d arrivals, want %d", i, len(s[i]), st.jobs)
		}
		for k := 1; k < len(s[i]); k++ {
			if s[i][k] < s[i][k-1] {
				t.Fatalf("step %d: arrival %d precedes arrival %d", i, k, k-1)
			}
		}
	}
}

// The job list does not depend on the run seed, so every run solves the
// same jobs.
func TestJobMixIsFixed(t *testing.T) {
	a, b := jobMix(300), jobMix(300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("job mix differs between calls")
	}
	var gfm, paper int
	for _, js := range a {
		if js.method == "gfm" {
			gfm++
		}
		if js.instance >= smallPool {
			paper++
		}
	}
	if gfm == 0 || paper == 0 || gfm+paper > len(a)/2 {
		t.Fatalf("mix has %d gfm and %d paper-size jobs of %d", gfm, paper, len(a))
	}

	// The nominal step's tail percentile must fall well inside the heavy
	// jobs: more than 1.5× the samples beyond it are paper-size.
	if n := ladderFor(time.Second)[nominalStep].jobs; n != 120 {
		t.Fatalf("a 1 s run's nominal step has %d jobs, want the minimum 120", n)
	}
	for _, seconds := range []time.Duration{time.Second, 35 * time.Second, 60 * time.Second} {
		ladder := ladderFor(seconds)
		from := 0
		for s := 0; s < nominalStep; s++ {
			from += ladder[s].jobs
		}
		n := ladder[nominalStep].jobs
		heavy := 0
		for _, js := range jobMix(from + n)[from:] {
			if js.instance >= smallPool {
				heavy++
			}
		}
		pct, _ := tail(make([]float64, n))
		if beyond := n - nearestRank(pct, n); 2*heavy <= 3*beyond {
			t.Errorf("%v run: nominal step has %d paper-size jobs of %d, %d beyond its p%g", seconds, heavy, n, beyond, pct)
		}
	}
}

// Latency runs from the job's due time, not from when it was sent, so a
// generator stall counts against the daemon's answer time.
func TestLatencyIsFromDueTime(t *testing.T) {
	due := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	done := &jobRecord{due: due, sent: due.Add(40 * time.Millisecond), status: http.StatusAccepted}
	done.job.State = "done"
	done.job.FinishedAt = due.Add(100 * time.Millisecond)
	done.job.Result = &jobResult{Feasible: true}
	if got := done.latency(); got != 100*time.Millisecond {
		t.Errorf("latency = %v, want 100ms from the due time", got)
	}
	failed := &jobRecord{due: due, status: http.StatusAccepted}
	failed.job.State = "failed"
	failed.job.FinishedAt = due.Add(5 * time.Millisecond)
	if got := failed.latency(); got != jobTimeout {
		t.Errorf("failed job latency = %v, want the %v miss", got, jobTimeout)
	}
	refused := &jobRecord{due: due, status: http.StatusTooManyRequests}
	if got := refused.latency(); got != jobTimeout {
		t.Errorf("refused job latency = %v, want the %v miss", got, jobTimeout)
	}
}

func TestJudgeStepBacklog(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(n int, gap, lat time.Duration, grow bool) []*jobRecord {
		var recs []*jobRecord
		for k := 0; k < n; k++ {
			r := &jobRecord{due: start.Add(time.Duration(k) * gap), status: http.StatusAccepted}
			l := lat
			if grow {
				l += time.Duration(k) * gap // the queue never drains
			}
			r.job.State = "done"
			r.job.FinishedAt = r.due.Add(l)
			r.job.Result = &jobResult{}
			recs = append(recs, r)
		}
		return recs
	}
	if sr := judgeStep(10, mk(100, 100*time.Millisecond, 20*time.Millisecond, false)); !sr.meetsLimit || sr.backlog > 1 {
		t.Errorf("steady step: meets %v, backlog %d", sr.meetsLimit, sr.backlog)
	}
	if sr := judgeStep(10, mk(100, 5*time.Millisecond, 20*time.Millisecond, true)); sr.meetsLimit || sr.backlog <= backlogLimit {
		t.Errorf("growing step: meets %v, backlog %d", sr.meetsLimit, sr.backlog)
	}
}

func TestMetricNameValidation(t *testing.T) {
	good := []string{"solve_s", "qbp.iter_us", "bench.fail.gap_step4", "9lives", "a-b"}
	bad := []string{"", "_lead", ".lead", "has space", "slash/name", "ünicode",
		"x2345678901234567890123456789012345678901234567890123456789012345"} // 65 characters
	for _, n := range good {
		if err := checkMetric(n, metric{1, "ms"}); err != nil {
			t.Errorf("%q rejected: %v", n, err)
		}
	}
	for _, n := range bad {
		if err := checkMetric(n, metric{1, "ms"}); err == nil {
			t.Errorf("%q accepted", n)
		}
	}
	for _, u := range []string{"1/s", "%", "count", "MB"} {
		if err := checkMetric("x", metric{1, u}); err != nil {
			t.Errorf("unit %q rejected: %v", u, err)
		}
	}
	for _, u := range []string{"", "m s", "seventeen-letters"} {
		if err := checkMetric("x", metric{1, u}); err == nil {
			t.Errorf("unit %q accepted", u)
		}
	}
	if err := checkMetric("x", metric{nan(), "ms"}); err == nil {
		t.Error("NaN accepted")
	}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		seen := map[string]bool{}
		for _, s := range specs {
			if err := checkMetric(s.name, metric{1, s.unit}); err != nil {
				t.Error(err)
			}
			if seen[s.name] {
				t.Errorf("metric %s declared twice", s.name)
			}
			seen[s.name] = true
		}
	}
}

func nan() float64 { var z float64; return z / z }

func TestFailureClassification(t *testing.T) {
	if k := classifyError("qbp: STEP 4 subproblem has no capacity-feasible solution"); k != failGAP {
		t.Errorf("STEP 4 error classified %s", failNames[k])
	}
	if k := classifyError("qbp: STEP 6 subproblem has no capacity-feasible solution"); k != failGAP {
		t.Errorf("STEP 6 error classified %s", failNames[k])
	}
	if k := classifyError("textio: line 3: bad header"); k != failError {
		t.Errorf("decode error classified %s", failNames[k])
	}
	for _, code := range []int{429, 413, 503} {
		if k := classifySubmit(code); k != failRefused {
			t.Errorf("HTTP %d classified %s", code, failNames[k])
		}
	}
	if k := classifySubmit(400); k != failError {
		t.Errorf("HTTP 400 classified %s", failNames[k])
	}
	if _, failed := classifyJob("done", ""); failed {
		t.Error("done job counted as failed")
	}
	if k, _ := classifyJob("failed", "qbp: STEP 4 subproblem has no capacity-feasible solution"); k != failGAP {
		t.Errorf("failed GAP job classified %s", failNames[k])
	}
	if k, _ := classifyJob("failed", "generating feasible start: boom"); k != failJob {
		t.Errorf("failed job classified %s", failNames[k])
	}
	if k, _ := classifyJob("canceled", ""); k != failJob {
		t.Errorf("canceled job classified %s", failNames[k])
	}

	timedOut := &jobRecord{status: http.StatusAccepted, timedOut: true}
	if k, _, failed := timedOut.failure(); !failed || k != failTimeout {
		t.Errorf("timed-out job: failed %v kind %s", failed, failNames[k])
	}

	var ta tally
	ta.attempted = 4
	ta.fail(failGAP, "x")
	ta.fail(failCheck, "mismatch")
	if ta.failed() != 2 || ta.successShare() != 0.5 || len(ta.incorrect) != 1 {
		t.Errorf("tally: failed %d, share %g, incorrect %v", ta.failed(), ta.successShare(), ta.incorrect)
	}
}

// BENCHMARK.json at the repository root declares exactly the metrics the
// program prints, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 60},
		{ID: 3, Parent: 1, Name: "b", Start: 50, End: 90}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 10, End: 20},
	}
	got := map[string]layerStat{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	if got["root"].Self != 10 || got["a"].Self != 50 || got["b"].Self != 40 || got["c"].Self != 10 {
		t.Errorf("self times: %+v", got)
	}
	if u := uncoveredShare(spans, []string{"root"}); u < 0.0999 || u > 0.1001 {
		t.Errorf("uncovered share = %g, want 0.1", u)
	}
}
