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
// vector from Eval and answers every spec at its point. A per-spec entry
// holds one value from EvalSpec, keyed by (d, s, θ, i), and answers only
// spec i. A per-spec request is answered by a full entry first, then by
// its own per-spec entry. problem.SpecValue evaluates in full exactly
// where several specs meet (statistical points with at most one nonzero
// entry), so those points are simulated once whatever the call order.
//
// The cache is safe for concurrent use and deduplicates in-flight work
// (singleflight): when several goroutines request the same unsimulated
// point, one runs the simulator and the rest wait for its result.
package evalcache

import (
	"math"
	"sync"
	"sync/atomic"

	"specwise/internal/problem"
)

// DefaultMaxEntries bounds the cache when no explicit capacity is given.
// An optimizer run evaluates tens of thousands of points at most; the cap
// only guards against pathological callers. When full, the per-run Cache
// simulates new points but does not store them (counted in
// Stats.Overflow): its memoized set is append-only, so which points are
// memoized — and therefore every returned value — is deterministic for a
// given evaluation order. The manager-scoped Shared cache (shared.go)
// instead does true LRU eviction under the same default cap; it relies
// only on bit-exact hits, not on a deterministic resident set, for its
// determinism guarantee.
const DefaultMaxEntries = 1 << 19

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts evaluations answered from a completed cache entry.
	Hits int64
	// CrossHits is the subset of Hits answered from an entry another
	// job stored — always zero for the per-run Cache, meaningful for a
	// Shared cache's View (shared.go), where it measures cross-job
	// simulation reuse inside a sweep.
	CrossHits int64
	// Misses counts evaluations that ran the simulator.
	Misses int64
	// Deduped counts evaluations that joined another goroutine's
	// in-flight simulation of the same point instead of starting their own.
	Deduped int64
	// Overflow counts evaluations simulated but not stored because the
	// cache was at capacity.
	Overflow int64
	// ConstraintHits / ConstraintMisses are the same tallies for the
	// (cheaper, DC-only) constraint evaluations, keyed by d alone.
	ConstraintHits   int64
	ConstraintMisses int64
}

// entry is one memoized evaluation. done is closed once vals/err are
// valid; waiters block on it (the singleflight rendezvous).
type entry struct {
	done chan struct{}
	vals []float64
	err  error
}

// Cache memoizes Problem.Eval, Problem.EvalSpec and Problem.Constraints
// results.
type Cache struct {
	mu    sync.Mutex
	evals map[string]*entry // full performance vectors
	specs map[string]*entry // single performances, keyed by point and spec
	cons  map[string]*entry
	max   int

	hits, misses, deduped, overflow atomic.Int64
	consHits, consMisses            atomic.Int64
}

// New returns an empty cache. maxEntries <= 0 selects DefaultMaxEntries.
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{
		evals: make(map[string]*entry),
		specs: make(map[string]*entry),
		cons:  make(map[string]*entry),
		max:   maxEntries,
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Deduped:          c.deduped.Load(),
		Overflow:         c.overflow.Load(),
		ConstraintHits:   c.consHits.Load(),
		ConstraintMisses: c.consMisses.Load(),
	}
}

// Len returns the number of stored full-evaluation entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.evals)
}

// Wrap returns a shallow copy of p whose Eval — and EvalSpec and
// Constraints, when present — are memoized through c. The wrapped
// functions are safe for concurrent use (assuming the underlying ones
// are, as the optimizer already requires) and return defensive copies,
// so callers may not corrupt each other through the cache.
func (c *Cache) Wrap(p *problem.Problem) *problem.Problem {
	q := *p
	inner := p.Eval
	q.Eval = func(d, s, theta []float64) ([]float64, error) {
		return c.do(c.evals, evalKey(d, s, theta), &c.hits, &c.misses, func() ([]float64, error) {
			return inner(d, s, theta)
		})
	}
	if p.EvalSpec != nil {
		innerS := p.EvalSpec
		q.EvalSpec = func(d, s, theta []float64, i int) (float64, error) {
			key := evalKey(d, s, theta)
			c.mu.Lock()
			if e, ok := c.evals[key]; ok {
				vals, err := c.join(e, &c.hits)
				if err != nil {
					return 0, err
				}
				return vals[i], nil
			}
			vals, err := c.doLocked(c.specs, specKey(key, i), &c.hits, &c.misses, func() ([]float64, error) {
				v, err := innerS(d, s, theta, i)
				return []float64{v}, err
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
			return c.do(c.cons, packFloats(nil, d), &c.consHits, &c.consMisses, func() ([]float64, error) {
				return innerC(d)
			})
		}
	}
	return &q
}

// do is the memoized call: answer from a completed entry, join an
// in-flight one, or run compute and publish the result.
func (c *Cache) do(m map[string]*entry, key string, hits, misses *atomic.Int64, compute func() ([]float64, error)) ([]float64, error) {
	c.mu.Lock()
	return c.doLocked(m, key, hits, misses, compute)
}

// join answers from an existing entry: it counts a dedup when the entry
// is in flight or else a hit, waits for it and returns a copy of its
// values. Called with c.mu held; it releases the lock.
func (c *Cache) join(e *entry, hits *atomic.Int64) ([]float64, error) {
	inflight := !closed(e.done)
	c.mu.Unlock()
	if inflight {
		c.deduped.Add(1)
	} else {
		hits.Add(1)
	}
	<-e.done
	if e.err != nil {
		return nil, e.err
	}
	return append([]float64(nil), e.vals...), nil
}

// doLocked is do with c.mu already held; it releases the lock.
func (c *Cache) doLocked(m map[string]*entry, key string, hits, misses *atomic.Int64, compute func() ([]float64, error)) ([]float64, error) {
	if e, ok := m[key]; ok {
		return c.join(e, hits)
	}
	store := len(m) < c.max
	var e *entry
	if store {
		e = &entry{done: make(chan struct{})}
		m[key] = e
	}
	c.mu.Unlock()

	misses.Add(1)
	if !store {
		c.overflow.Add(1)
		return compute()
	}

	vals, err := compute()
	e.vals, e.err = vals, err
	close(e.done)
	if err != nil {
		// Errors are not memoized: drop the entry so a later retry can
		// run the simulator again (current waiters still see the error).
		c.mu.Lock()
		delete(m, key)
		c.mu.Unlock()
		return nil, err
	}
	return append([]float64(nil), vals...), nil
}

// closed reports whether done has been closed, without blocking.
func closed(done chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// evalKey builds the exact content key of one evaluation point. The raw
// IEEE-754 bit patterns are packed, so distinct floats never collide and
// equal floats always hit (0.0 and -0.0 are distinct keys, which is the
// conservative choice).
func evalKey(d, s, theta []float64) string {
	buf := make([]byte, 0, 8*(len(d)+len(s)+len(theta))+12)
	buf = packFloatsBytes(buf, d)
	buf = packFloatsBytes(buf, s)
	buf = packFloatsBytes(buf, theta)
	return string(buf)
}

// specKey extends a point's key with a spec index. Point keys are
// self-delimiting, so per-spec keys of different points or specs never
// collide.
func specKey(pointKey string, i int) string {
	return pointKey + string([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)})
}

// packFloats returns the packed key of a single vector.
func packFloats(buf []byte, v []float64) string {
	return string(packFloatsBytes(buf, v))
}

// packFloatsBytes appends the length and raw float bits of v to buf.
func packFloatsBytes(buf []byte, v []float64) []byte {
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
