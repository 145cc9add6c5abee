package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"specwise/internal/problem"
)

// span is one timed interval at a layer boundary. Spans of one job share
// Job; Parent is the span that caused this one (0 for a root). Times are
// nanoseconds since the tracer's base.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run writes them out.
// It is recorded from the benchmark's own code only: wrappers around the
// problem's evaluation callbacks, the job store and the HTTP calls.
type tracer struct {
	base  time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is the current time on the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// at converts a wall-clock timestamp (such as one decoded from a job
// status) to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.base)) }

func (t *tracer) newID() int64 { return t.next.Add(1) }

// add records a finished span and returns its ID (a fresh one when id
// is 0).
func (t *tracer) add(id, parent int64, job, name string, start, end int64) int64 {
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// instrument returns a shallow copy of p whose Eval and Constraints calls
// are recorded as "eval" and "constraint" spans under parent.
func (t *tracer) instrument(p *problem.Problem, job string, parent int64) *problem.Problem {
	q := *p
	eval := p.Eval
	q.Eval = func(d, s, theta []float64) ([]float64, error) {
		start := t.now()
		v, err := eval(d, s, theta)
		t.add(0, parent, job, "eval", start, t.now())
		return v, err
	}
	if p.Constraints != nil {
		cons := p.Constraints
		q.Constraints = func(d []float64) ([]float64, error) {
			start := t.now()
			c, err := cons(d)
			t.add(0, parent, job, "constraint", start, t.now())
			return c, err
		}
	}
	return &q
}

// addIterations splits a run span [start, end] into one "iter" span per
// optimizer progress event (the interval ending at that event) plus the
// tail after the last event, and moves the run's eval and constraint
// spans under the iteration that was open when they started.
func (t *tracer) addIterations(job string, runID, start, end int64, events []int64) {
	bounds := append([]int64{start}, events...)
	if len(events) == 0 || events[len(events)-1] < end {
		bounds = append(bounds, end)
	}
	ids := make([]int64, len(bounds)-1)
	for i := range ids {
		ids[i] = t.add(0, runID, job, "iter", bounds[i], bounds[i+1])
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.spans {
		s := &t.spans[k]
		if s.Parent != runID || (s.Name != "eval" && s.Name != "constraint") {
			continue
		}
		i := sort.Search(len(ids), func(i int) bool { return bounds[i+1] > s.Start })
		if i == len(ids) {
			i = len(ids) - 1
		}
		s.Parent = ids[i]
	}
}

// layerOf maps span names to the module whose self time they carry.
var layerOf = map[string]string{
	"eval":          "spice",
	"constraint":    "spice",
	"job":           "core",
	"run":           "core",
	"iter":          "core",
	"queue":         "jobs",
	"client":        "server",
	"http.submit":   "server",
	"http.result":   "server",
	"store.append":  "store",
	"store.compact": "store",
}

// selfTimes returns each layer's self time in seconds: for every span,
// its duration minus the part of that interval its children cover
// (overlapping children count once), summed by layer.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		layer, ok := layerOf[s.Name]
		if !ok {
			continue
		}
		self := s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		out[layer] += float64(self) / 1e9
	}
	return out
}

// covered returns how much of [lo, hi] the union of the spans covers.
func covered(lo, hi int64, spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
