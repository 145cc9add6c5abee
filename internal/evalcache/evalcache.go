// Package evalcache memoizes circuit evaluations on the optimizer's hot
// path. The paper counts effort in simulator calls (Table 7) and spends
// most of them on points the run has already visited: every spec's
// worst-case search re-evaluates the nominal point the corner enumeration
// just simulated, specs sharing a worst-case operating corner probe
// identical (d, s, θ) points during their finite-difference gradients,
// and a spec's model build revisits its own worst-case point. The cache
// keys on the exact bit pattern of (d, s, θ), so a hit returns the same
// float64 values the simulator would — results are bit-identical with
// the cache on or off.
//
// Two kinds of entry are kept. A full entry holds the whole performance
// vector from Eval, keyed by (d, s, θ). A subset entry holds the vector
// of an EvalSubset call, keyed by (d, s, θ, mask), and answers only that
// mask; a per-spec evaluation is the one-hot mask of its spec.
// problem.SpecValue evaluates in full exactly where several specs meet
// (statistical points with at most one nonzero entry), so those points
// are simulated once whatever the call order, and every other point is
// looked up per spec.
//
// A View is also the run's one effort ledger (paper Table 7): every
// simulator call behind it counts once, as a miss, whether it was a
// memoized lookup that found nothing or a PassThrough call that never
// looks. Monte-Carlo verification samples are not memoized. The
// sign-off of the paper's Sec. 2 draws fresh random statistical points
// that no other request repeats: not one of the 4,050 sample lookups in
// the Table-1 folded-cascode and Table-6 Miller benchmarks hit, while
// the stored samples were most of a service sweep's live heap. They go
// through PassThrough, which runs the simulator with no lookup and no
// insert and counts each call as one miss, so every counter reads as if
// they had been looked up and missed; a run with the cache switched off
// sends all its evaluations the same way. Everything else the optimizer
// evaluates is memoized: the worst-case operating corners at s = 0, the
// per-spec worst-case searches (Eq. 8) and their gradients, the model
// builds, and the repeated common-sample evaluations of the
// cross-entropy search.
//
// The cache is safe for concurrent use and deduplicates in-flight work
// (singleflight): when several goroutines request the same unsimulated
// point, one runs the simulator and the rest wait for its result.
//
// One implementation serves two scopes. A Shared cache is
// manager-scoped: sweeps — seed sweeps for yield confidence, spec-bound
// sweeps, corner sweeps — run many jobs over the same problem, and most
// of their simulator calls probe points a sibling job has already
// simulated (every member's iteration-0 worst-case analysis at the
// shared initial design is identical, for one). Each job takes a View,
// which scopes its lookups to a caller-supplied problem hash, so jobs
// on the same problem reuse each other's simulations while jobs on
// different problems can never collide: the evaluation is a pure
// function of (problem, d, s, θ). New returns a private cache for one
// optimization run: the only View on a Shared cache nothing else
// reaches.
//
// There is one capacity policy: least-recently-used eviction of
// completed entries under the cap. In-flight entries are never evicted,
// so singleflight waiters always rendezvous. Eviction cannot change a
// result, only whether a later request hits: keys are exact bit
// patterns, so a recomputed value is the value the evicted entry held.
// Which points stay resident is not deterministic, and was not under
// the per-run cache's former rule of storing nothing more once full
// either: the concurrent per-spec searches in core.Engine.Analyze fill
// the cache in timing-dependent order. No paper table comes near the
// default cap (Table 1 is 19,556 simulations against 2^19 entries).
package evalcache

import (
	"container/list"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"specwise/internal/problem"
)

// DefaultMaxEntries bounds the cache when no explicit capacity is given.
// An optimizer run evaluates tens of thousands of points at most; the
// cap guards a long-lived Shared cache across many sweeps and
// pathological callers.
const DefaultMaxEntries = 1 << 19

// Stats is a snapshot of one View's counters.
type Stats struct {
	// Hits counts evaluations answered from a completed cache entry.
	Hits int64
	// CrossHits is the subset of Hits answered from an entry another
	// view (job) stored — always zero for a private cache, meaningful on
	// a Shared cache, where it measures cross-job simulation reuse
	// inside a sweep.
	CrossHits int64
	// Misses counts evaluations that ran the simulator.
	Misses int64
	// Deduped counts evaluations that joined another goroutine's
	// in-flight simulation of the same point instead of starting their own.
	// Whether a repeated lookup finds the entry completed (a hit) or
	// still in flight (a join) depends on goroutine timing, so identical
	// runs may split Hits and Deduped differently; their sum, like
	// Misses, is deterministic.
	Deduped int64
	// Evictions counts completed entries the LRU cap dropped to make room
	// for this view's inserts.
	Evictions int64
	// Overflow counts this view's inserts that found the cache at
	// capacity with nothing evictable (every candidate in flight), the
	// same event SharedStats.Overflow counts.
	Overflow int64
	// ConstraintHits / ConstraintMisses are the same tallies for the
	// (cheaper, DC-only) constraint evaluations, keyed by d alone.
	ConstraintHits   int64
	ConstraintMisses int64
}

// SharedStats snapshots the process-wide counters of a Shared cache.
type SharedStats struct {
	// Hits counts lookups answered from a completed entry; CrossHits is
	// the subset answered from an entry a *different* view (job) stored.
	Hits      int64
	CrossHits int64
	// Misses counts evaluations that ran the simulator: lookups that
	// stored their result, and PassThrough calls.
	Misses int64
	// Deduped counts lookups that joined another goroutine's in-flight
	// simulation of the same point.
	Deduped int64
	// Evictions counts entries dropped by the LRU cap.
	Evictions int64
	// Overflow counts inserts that found the cache at capacity with
	// nothing evictable (every candidate in-flight); the insert proceeds
	// over-cap and the next eviction restores the bound.
	Overflow int64
	// Entries and Problems are gauges: live entries and live problems.
	Entries  int
	Problems int
}

// entry is one memoized evaluation. owner is the view that stored it:
// its problem key is the entry's, and hits are classified same-job vs
// cross-job by it. ready is released once vals/err are valid; waiters
// block on it (the singleflight rendezvous). It is a WaitGroup rather
// than a channel: a channel is a second allocation of ~96 bytes, about
// what the LRU links cost, and Table 1 stores ~19,000 entries per run.
type entry struct {
	key   string
	owner *View
	ready sync.WaitGroup
	done  bool // ready released; guarded by Shared.mu
	vals  []float64
	err   error
}

// errPanicked is what the waiters of an in-flight entry see when its
// computation panicked. The panic itself goes on up the computing
// goroutine; the entry is settled and dropped on the way, so waiters
// wake and a later request recomputes instead of blocking forever.
var errPanicked = errors.New("evalcache: evaluation panicked")

// Shared is an evaluation cache keyed by (problem hash, kind, exact bit
// pattern of the evaluation point): one per process (daemon or remote
// worker), shared by every job that opts in, or one per run behind New.
// Safe for concurrent use.
type Shared struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List     // of *entry, most recently used first
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

// New returns a private cache for one run. maxEntries <= 0 selects
// DefaultMaxEntries.
func New(maxEntries int) *View {
	return NewShared(maxEntries).View("")
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

// View returns the handle one job uses to access the shared cache: all
// of its lookups are scoped to problemKey, and its Stats report that
// job's own reuse (including how much came from sibling jobs'
// entries). Views are cheap; take one per job execution.
func (s *Shared) View(problemKey string) *View {
	return &View{shared: s, problem: problemKey}
}

// View is one job's problem-scoped handle on a Shared cache: Wrap
// memoizes a problem's evaluations through it, and Stats reports this
// view's counters (Hits includes CrossHits; the shared totals live in
// Shared.Stats).
type View struct {
	shared  *Shared
	problem string

	hits, crossHits, misses, deduped atomic.Int64
	evictions, overflow              atomic.Int64
	consHits, consMisses             atomic.Int64
}

// Stats snapshots this view's counters.
func (v *View) Stats() Stats {
	return Stats{
		Hits:             v.hits.Load(),
		CrossHits:        v.crossHits.Load(),
		Misses:           v.misses.Load(),
		Deduped:          v.deduped.Load(),
		Evictions:        v.evictions.Load(),
		Overflow:         v.overflow.Load(),
		ConstraintHits:   v.consHits.Load(),
		ConstraintMisses: v.consMisses.Load(),
	}
}

// Wrap returns a shallow copy of p whose Eval — and EvalSubset and
// Constraints, when present — are memoized through the cache under this
// view's problem key: a full entry answers full requests at its point, a
// subset entry only its own mask. The wrapped functions are safe for
// concurrent use (assuming the underlying ones are, as the optimizer
// already requires) and return defensive copies, so callers may not
// corrupt each other through the cache.
func (v *View) Wrap(p *problem.Problem) *problem.Problem {
	q := *p
	inner := p.Eval
	q.Eval = func(d, s, theta []float64) ([]float64, error) {
		return v.do(v.key('e', nil, d, s, theta), &v.hits, &v.misses, func() ([]float64, error) {
			return inner(d, s, theta)
		})
	}
	if p.EvalSubset != nil {
		innerS := p.EvalSubset
		q.EvalSubset = func(d, s, theta []float64, want []bool) ([]float64, error) {
			return v.do(v.key('m', want, d, s, theta), &v.hits, &v.misses, func() ([]float64, error) {
				return innerS(d, s, theta, want)
			})
		}
	}
	if p.Constraints != nil {
		innerC := p.Constraints
		q.Constraints = func(d []float64) ([]float64, error) {
			return v.do(v.key('c', nil, d, nil, nil), &v.consHits, &v.consMisses, func() ([]float64, error) {
				return innerC(d)
			})
		}
	}
	return &q
}

// PassThrough returns a shallow copy of p whose Eval — and EvalSubset
// and Constraints, when present — run p's functions with no cache
// lookup and no insert. Each call counts as one miss (a constraint miss
// for Constraints) in this view's Stats and in the shared cache's
// Misses, since it does run the simulator; values, errors and panics
// are p's, unchanged. It serves evaluations no other request repeats,
// the Monte-Carlo verification samples, and runs with the cache
// switched off, which still count their simulator calls here.
func (v *View) PassThrough(p *problem.Problem) *problem.Problem {
	q := *p
	inner := p.Eval
	q.Eval = func(d, s, theta []float64) ([]float64, error) {
		v.miss(&v.misses)
		return inner(d, s, theta)
	}
	if p.EvalSubset != nil {
		innerS := p.EvalSubset
		q.EvalSubset = func(d, s, theta []float64, want []bool) ([]float64, error) {
			v.miss(&v.misses)
			return innerS(d, s, theta, want)
		}
	}
	if p.Constraints != nil {
		innerC := p.Constraints
		q.Constraints = func(d []float64) ([]float64, error) {
			v.miss(&v.consMisses)
			return innerC(d)
		}
	}
	return &q
}

// miss counts one simulator run in the shared cache and in the view.
func (v *View) miss(misses *atomic.Int64) {
	v.shared.misses.Add(1)
	misses.Add(1)
}

// key builds the cache key: problem-key length + problem key + kind
// byte ('e' full evaluation, 'm' a subset's evaluation, 'c' constraint)
// + for kind 'm' the mask (its length, then one byte per spec) + packed
// evaluation point. The explicit length keeps problem keys of different
// lengths from ever aliasing into the float section, and the kind byte
// and mask keep a subset entry from answering a full request or another
// mask.
// The raw IEEE-754 bit patterns are packed, so distinct floats never
// collide and equal floats always hit (0.0 and -0.0 are distinct keys,
// which is the conservative choice).
func (v *View) key(kind byte, want []bool, d, s, theta []float64) string {
	n := len(v.problem)
	buf := make([]byte, 0, n+len(want)+8*(len(d)+len(s)+len(theta))+21)
	buf = append(buf, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	buf = append(buf, v.problem...)
	buf = append(buf, kind)
	if kind == 'm' {
		m := len(want)
		buf = append(buf, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
		for _, w := range want {
			if w {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	buf = packFloats(buf, d)
	buf = packFloats(buf, s)
	buf = packFloats(buf, theta)
	return string(buf)
}

// packFloats appends the length and raw float bits of v to buf.
func packFloats(buf []byte, v []float64) []byte {
	n := len(v)
	buf = append(buf, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	for _, x := range v {
		b := math.Float64bits(x)
		buf = append(buf,
			byte(b), byte(b>>8), byte(b>>16), byte(b>>24),
			byte(b>>32), byte(b>>40), byte(b>>48), byte(b>>56))
	}
	return buf
}

// do is the memoized call: answer from a completed entry (classifying
// same-view vs cross-view), join an in-flight one, or run compute,
// publish and evict past the cap.
func (v *View) do(key string, hits, misses *atomic.Int64, compute func() ([]float64, error)) ([]float64, error) {
	s := v.shared
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*entry)
		s.lru.MoveToFront(el)
		inflight, cross := !e.done, e.owner != v
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
		e.ready.Wait()
		if e.err != nil {
			return nil, e.err
		}
		return append([]float64(nil), e.vals...), nil
	}
	e := &entry{key: key, owner: v}
	e.ready.Add(1)
	s.entries[key] = s.lru.PushFront(e)
	s.perProb[v.problem]++
	if s.lru.Len() > s.max {
		s.evictLocked(v)
	}
	s.mu.Unlock()

	v.miss(misses)
	settled := false
	defer func() {
		if !settled {
			s.settle(e, nil, errPanicked)
		}
	}()
	vals, err := compute()
	settled = true
	s.settle(e, vals, err)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), vals...), nil
}

// settle publishes a computation's outcome on its entry and wakes the
// waiters. Errors are not memoized: the entry is dropped so a later
// retry can run the simulator again (current waiters still see the
// error).
func (s *Shared) settle(e *entry, vals []float64, err error) {
	s.mu.Lock()
	e.vals, e.err = vals, err
	e.done = true
	e.ready.Done()
	if err != nil {
		if el, ok := s.entries[e.key]; ok && el.Value.(*entry) == e {
			s.dropLocked(el, e)
		}
	}
	s.mu.Unlock()
}

// evictLocked restores the LRU cap after an insert through v by dropping
// the least recently used completed entries. In-flight entries are
// skipped — their waiters rendezvous on them — and if nothing is
// evictable the cache runs over-cap until a computation settles (counted
// as Overflow). Both the shared and v's counters record the outcome.
// Caller holds s.mu.
func (s *Shared) evictLocked(v *View) {
	el := s.lru.Back()
	for s.lru.Len() > s.max && el != nil {
		prev := el.Prev()
		if e := el.Value.(*entry); e.done {
			s.dropLocked(el, e)
			s.evictions.Add(1)
			v.evictions.Add(1)
		}
		el = prev
	}
	if s.lru.Len() > s.max {
		s.overflow.Add(1)
		v.overflow.Add(1)
	}
}

// dropLocked unlinks one entry. Caller holds s.mu.
func (s *Shared) dropLocked(el *list.Element, e *entry) {
	s.lru.Remove(el)
	delete(s.entries, e.key)
	if n := s.perProb[e.owner.problem] - 1; n > 0 {
		s.perProb[e.owner.problem] = n
	} else {
		delete(s.perProb, e.owner.problem)
	}
}
