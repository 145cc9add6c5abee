package evalcache

// The manager-scoped shared cache. The per-run Cache (evalcache.go)
// memoizes within one optimization; sweeps — seed sweeps for yield
// confidence, spec-bound sweeps, corner sweeps — run many jobs over the
// same problem, and most of their simulator calls probe (d, s, θ)
// points a sibling job has already simulated (every member's iteration-0
// worst-case analysis at the shared initial design is identical, for
// one). Shared keys entries additionally by a caller-supplied problem
// hash, so jobs on the same problem reuse each other's simulations
// while jobs on different problems can never collide: the evaluation is
// a pure function of (problem, d, s, θ), keyed by the exact IEEE-754
// bit patterns, so a cross-job hit returns the same float64 values the
// simulator would and results stay bit-identical with sharing on or
// off.
//
// Unlike the per-run Cache — which deliberately stops storing at
// capacity to keep one run's memoized set append-only — Shared is a
// long-lived process-level structure and does true LRU eviction under
// its cap, with per-problem entry accounting and per-problem eviction
// (DropProblem) for operators that want to retire a finished sweep's
// working set. In-flight entries are never evicted, so singleflight
// waiters always rendezvous.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"specwise/internal/problem"
)

// Wrapper is the common face of the per-run Cache and a Shared cache's
// per-problem View: something that can memoize a problem's evaluations
// and report its reuse counters. core.Options accepts any Wrapper.
type Wrapper interface {
	Wrap(p *problem.Problem) *problem.Problem
	Stats() Stats
}

var (
	_ Wrapper = (*Cache)(nil)
	_ Wrapper = (*View)(nil)
)

// SharedStats snapshots the process-wide counters of a Shared cache.
type SharedStats struct {
	// Hits counts lookups answered from a completed entry; CrossHits is
	// the subset answered from an entry a *different* view (job) stored.
	Hits      int64
	CrossHits int64
	// Misses counts lookups that ran the simulator and stored the result.
	Misses int64
	// Deduped counts lookups that joined another goroutine's in-flight
	// simulation of the same point.
	Deduped int64
	// Evictions counts entries dropped by the LRU cap or DropProblem.
	Evictions int64
	// Overflow counts inserts that found the cache at capacity with
	// nothing evictable (every candidate in-flight); the insert proceeds
	// over-cap and the next eviction restores the bound.
	Overflow int64
	// Entries and Problems are gauges: live entries and live problems.
	Entries  int
	Problems int
}

// sharedEntry is one memoized evaluation in the shared cache. owner is
// the view that stored it, so hits can be classified same-job vs
// cross-job.
type sharedEntry struct {
	key     string
	problem string
	owner   *View
	e       *entry
}

// Shared is a manager-scoped evaluation cache: one per process (daemon
// or remote worker), shared by every job that opts in, keyed by
// (problem hash, kind, exact bit pattern of the evaluation point). Safe
// for concurrent use; in-flight work is deduplicated exactly as in the
// per-run Cache.
type Shared struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List     // of *sharedEntry, most recently used first
	perProb map[string]int // problem key → live entry count
	max     int

	hits, crossHits, misses, deduped atomic.Int64
	evictions, overflow              atomic.Int64
}

// NewShared returns an empty shared cache. maxEntries <= 0 selects
// DefaultMaxEntries.
func NewShared(maxEntries int) *Shared {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Shared{
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		perProb: make(map[string]int),
		max:     maxEntries,
	}
}

// Stats snapshots the process-wide counters.
func (s *Shared) Stats() SharedStats {
	s.mu.Lock()
	entries, problems := s.lru.Len(), len(s.perProb)
	s.mu.Unlock()
	return SharedStats{
		Hits:      s.hits.Load(),
		CrossHits: s.crossHits.Load(),
		Misses:    s.misses.Load(),
		Deduped:   s.deduped.Load(),
		Evictions: s.evictions.Load(),
		Overflow:  s.overflow.Load(),
		Entries:   entries,
		Problems:  problems,
	}
}

// Len returns the number of stored entries.
func (s *Shared) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// PerProblem snapshots the live entry count of every problem.
func (s *Shared) PerProblem() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.perProb))
	for k, n := range s.perProb {
		out[k] = n
	}
	return out
}

// DropProblem evicts every completed entry of one problem (a finished
// sweep's working set) and returns how many were dropped. In-flight
// entries are left to complete and remain cached.
func (s *Shared) DropProblem(problemKey string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	var next *list.Element
	for el := s.lru.Front(); el != nil; el = next {
		next = el.Next()
		se := el.Value.(*sharedEntry)
		if se.problem == problemKey && closed(se.e.done) {
			s.removeLocked(el, se)
			dropped++
		}
	}
	return dropped
}

// View returns the handle one job uses to access the shared cache: all
// of its lookups are scoped to problemKey, and its Stats report that
// job's own reuse (including how much came from sibling jobs'
// entries). Views are cheap; take one per job execution.
func (s *Shared) View(problemKey string) *View {
	return &View{shared: s, problem: problemKey}
}

// View is one job's problem-scoped handle on a Shared cache. It
// implements Wrapper: Wrap memoizes a problem's Eval and Constraints
// through the shared cache, and Stats reports this view's counters
// (Hits includes CrossHits; the shared totals live in Shared.Stats).
type View struct {
	shared  *Shared
	problem string

	hits, crossHits, misses, deduped atomic.Int64
	consHits, consMisses             atomic.Int64
}

// Stats snapshots this view's counters.
func (v *View) Stats() Stats {
	return Stats{
		Hits:             v.hits.Load(),
		CrossHits:        v.crossHits.Load(),
		Misses:           v.misses.Load(),
		Deduped:          v.deduped.Load(),
		ConstraintHits:   v.consHits.Load(),
		ConstraintMisses: v.consMisses.Load(),
	}
}

// Wrap returns a shallow copy of p whose Eval — and EvalSpec and
// Constraints, when present — are memoized through the shared cache
// under this view's problem key, with the per-run Cache's entry rules: a
// full entry answers every spec at its point, a per-spec entry only its
// own. Returned slices are defensive copies.
func (v *View) Wrap(p *problem.Problem) *problem.Problem {
	q := *p
	inner := p.Eval
	q.Eval = func(d, s, theta []float64) ([]float64, error) {
		return v.do(v.key('e', d, s, theta), &v.hits, &v.misses, func() ([]float64, error) {
			return inner(d, s, theta)
		})
	}
	if p.EvalSpec != nil {
		innerS := p.EvalSpec
		q.EvalSpec = func(d, s, theta []float64, i int) (float64, error) {
			v.shared.mu.Lock()
			if el, ok := v.shared.entries[v.key('e', d, s, theta)]; ok {
				vals, err := v.join(el, &v.hits)
				if err != nil {
					return 0, err
				}
				return vals[i], nil
			}
			vals, err := v.doLocked(specKey(v.key('s', d, s, theta), i), &v.hits, &v.misses, func() ([]float64, error) {
				x, err := innerS(d, s, theta, i)
				return []float64{x}, err
			})
			if err != nil {
				return 0, err
			}
			return vals[0], nil
		}
	}
	if p.Constraints != nil {
		innerC := p.Constraints
		q.Constraints = func(d []float64) ([]float64, error) {
			return v.do(v.key('c', d, nil, nil), &v.consHits, &v.consMisses, func() ([]float64, error) {
				return innerC(d)
			})
		}
	}
	return &q
}

// key builds the full shared-cache key: problem-key length + problem
// key + kind byte + packed evaluation point. The explicit length keeps
// problem keys of different lengths from ever aliasing into the float
// section.
func (v *View) key(kind byte, d, s, theta []float64) string {
	n := len(v.problem)
	buf := make([]byte, 0, n+8*(len(d)+len(s)+len(theta))+17)
	buf = append(buf, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	buf = append(buf, v.problem...)
	buf = append(buf, kind)
	buf = packFloatsBytes(buf, d)
	buf = packFloatsBytes(buf, s)
	buf = packFloatsBytes(buf, theta)
	return string(buf)
}

// do is the memoized call through the shared cache: answer from a
// completed entry (classifying same-view vs cross-view), join an
// in-flight one, or run compute, publish and evict past the cap.
func (v *View) do(key string, hits, misses *atomic.Int64, compute func() ([]float64, error)) ([]float64, error) {
	v.shared.mu.Lock()
	return v.doLocked(key, hits, misses, compute)
}

// join answers from an existing entry: it marks the entry recently
// used, counts a dedup when it is in flight or else a hit (and a cross
// hit when another view stored it), waits for it and returns a copy of
// its values. Called with s.mu held; it releases the lock.
func (v *View) join(el *list.Element, hits *atomic.Int64) ([]float64, error) {
	s := v.shared
	se := el.Value.(*sharedEntry)
	s.lru.MoveToFront(el)
	inflight := !closed(se.e.done)
	cross := se.owner != v
	s.mu.Unlock()
	if inflight {
		s.deduped.Add(1)
		v.deduped.Add(1)
	} else {
		s.hits.Add(1)
		hits.Add(1)
		if cross {
			s.crossHits.Add(1)
			v.crossHits.Add(1)
		}
	}
	<-se.e.done
	if se.e.err != nil {
		return nil, se.e.err
	}
	return append([]float64(nil), se.e.vals...), nil
}

// doLocked is do with s.mu already held; it releases the lock.
func (v *View) doLocked(key string, hits, misses *atomic.Int64, compute func() ([]float64, error)) ([]float64, error) {
	s := v.shared
	if el, ok := s.entries[key]; ok {
		return v.join(el, hits)
	}
	se := &sharedEntry{key: key, problem: v.problem, owner: v, e: &entry{done: make(chan struct{})}}
	s.entries[key] = s.lru.PushFront(se)
	s.perProb[v.problem]++
	s.evictLocked()
	s.mu.Unlock()

	s.misses.Add(1)
	misses.Add(1)
	settled := false
	defer func() {
		if !settled {
			s.settle(se, nil, errPanicked)
		}
	}()
	vals, err := compute()
	settled = true
	s.settle(se, vals, err)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), vals...), nil
}

// settle publishes a computation's outcome on its entry and wakes the
// waiters. Errors are not memoized: the entry is dropped so a later
// retry can run the simulator again (current waiters still see the
// error).
func (s *Shared) settle(se *sharedEntry, vals []float64, err error) {
	s.mu.Lock()
	se.e.vals, se.e.err = vals, err
	close(se.e.done)
	if err != nil {
		if el, ok := s.entries[se.key]; ok && el.Value.(*sharedEntry) == se {
			s.dropLocked(el, se)
		}
	}
	s.mu.Unlock()
}

// evictLocked restores the LRU cap by dropping the least recently used
// completed entries. In-flight entries are skipped — their waiters hold
// the rendezvous channel — and if nothing is evictable the cache runs
// over-cap until a computation settles (counted as Overflow). Caller
// holds s.mu.
func (s *Shared) evictLocked() {
	el := s.lru.Back()
	for s.lru.Len() > s.max && el != nil {
		prev := el.Prev()
		se := el.Value.(*sharedEntry)
		if closed(se.e.done) {
			s.removeLocked(el, se)
		}
		el = prev
	}
	if s.lru.Len() > s.max {
		s.overflow.Add(1)
	}
}

// removeLocked drops one entry and counts the eviction. Caller holds s.mu.
func (s *Shared) removeLocked(el *list.Element, se *sharedEntry) {
	s.dropLocked(el, se)
	s.evictions.Add(1)
}

// dropLocked unlinks one entry without counting an eviction (the
// error-unpublish path). Caller holds s.mu.
func (s *Shared) dropLocked(el *list.Element, se *sharedEntry) {
	s.lru.Remove(el)
	delete(s.entries, se.key)
	if n := s.perProb[se.problem] - 1; n > 0 {
		s.perProb[se.problem] = n
	} else {
		delete(s.perProb, se.problem)
	}
}
