package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval, the span
// that caused it (0 for a root) and the workload run it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and per-layer counters in memory until the run ends.
// A nil *tracer is the untraced mode: every method is a no-op, so the
// workloads call it unconditionally.
type tracer struct {
	mu     sync.Mutex
	run    string
	epoch  time.Time
	spans  []span
	counts map[string]float64
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now(), counts: map[string]float64{}}
}

// add records a span over [start, end] under parent and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// open starts a span that close ends; its id can parent the spans
// recorded in between.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

// close ends the span opened as id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// count adds v to a per-layer counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// counter returns a per-layer counter and whether it was ever set.
func (t *tracer) counter(name string) (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.counts[name]
	return v, ok
}

// durations lists the durations of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// layerStat aggregates all spans of one name.
type layerStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// childIndex maps each span id to its children.
func childIndex(spans []span) map[int][]span {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	return children
}

// selfTimes returns per-name totals and self times, largest total first: a
// span's self time is its duration minus the part of its interval its
// children cover.
func selfTimes(spans []span) []layerStat {
	children := childIndex(spans)
	byName := map[string]*layerStat{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]layerStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type interval struct{ lo, hi int64 }
	ivs := make([]interval, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	reach := parent.Start
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return time.Duration(total)
}

// uncoveredShare is the share of the summed wall time of the spans named
// in parents that their children leave uncovered: time on the blocking
// path that no layer span accounts for.
func uncoveredShare(spans []span, parents []string) float64 {
	want := map[string]bool{}
	for _, p := range parents {
		want[p] = true
	}
	children := childIndex(spans)
	var wall, cov time.Duration
	for _, s := range spans {
		if want[s.Name] {
			wall += s.dur()
			cov += covered(s, children[s.ID])
		}
	}
	if wall <= 0 {
		return 0
	}
	return 1 - float64(cov)/float64(wall)
}

// writeSummary prints each layer's span count, total and self time.
func writeSummary(w io.Writer, stats []layerStat) {
	fmt.Fprintf(w, "%-30s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range stats {
		fmt.Fprintf(w, "%-30s %7d %12.3f %12.3f\n", st.Name, st.Count,
			float64(st.Total)/1e6, float64(st.Self)/1e6)
	}
}

// saveTrace writes the span file (one JSON object per line) and the
// self-time summary into dir as <base>.spans.jsonl and <base>.summary.txt.
func saveTrace(dir, base string, spans []span, summary string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, base+".spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".summary.txt"), []byte(summary), 0o644)
}
