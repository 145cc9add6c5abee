// Package sched is the process-wide compute scheduler: one semaphore
// shared by every parallel pool — the per-spec worst-case searches,
// finite-difference gradient workers, Monte-Carlo verification workers
// and the coordinate search's sample blocks.
// It exists so those pools, which overlap and nest freely (every spec's
// worst-case search runs its own gradient pool, and service jobs run
// side by side), can together size themselves to the machine instead of
// multiplying worker counts.
//
// Every pool is one call to For, the caller-runs index loop: the calling
// goroutine works through the indices itself, and extra goroutines join
// only while the non-blocking TryAcquire grants a slot. A denied slot is
// never an error and no caller ever waits on the scheduler, so nested
// loops cannot deadlock.
//
// Determinism is untouched by construction: the scheduler only decides
// how many goroutines run concurrently, and every loop it runs writes
// results by index (or through the bit-exact evaluation cache), so
// results are identical for any capacity, including every slot held.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Sched is one compute semaphore. The zero value is not usable;
// construct with New or use the process-wide Default.
type Sched struct {
	mu       sync.Mutex
	capacity int
	inUse    int

	granted atomic.Int64
	denied  atomic.Int64
}

// Stats is a snapshot of the scheduler gauges and counters, feeding the
// daemon's /metrics series.
type Stats struct {
	// Capacity is the configured slot ceiling; InUse the slots held now.
	Capacity int
	InUse    int
	// Granted / Denied count TryAcquire outcomes.
	Granted int64
	Denied  int64
}

// New returns a scheduler with the given capacity (values < 1 are
// raised to 1).
func New(capacity int) *Sched {
	if capacity < 1 {
		capacity = 1
	}
	return &Sched{capacity: capacity}
}

var (
	defaultOnce sync.Once
	defaultSch  *Sched
)

// Default returns the process-wide scheduler, sized to GOMAXPROCS at
// first use. Every built-in pool gates its extra workers through it.
func Default() *Sched {
	defaultOnce.Do(func() {
		defaultSch = New(runtime.GOMAXPROCS(0))
	})
	return defaultSch
}

// TryAcquire requests one extra-worker slot without blocking. Callers
// must follow the caller-runs pattern: the requesting goroutine does
// work itself regardless, extra workers only join while slots are free.
// For is that pattern; pools use it rather than calling TryAcquire.
func (s *Sched) TryAcquire() bool {
	s.mu.Lock()
	if s.inUse >= s.capacity {
		s.mu.Unlock()
		s.denied.Add(1)
		return false
	}
	s.inUse++
	s.mu.Unlock()
	s.granted.Add(1)
	return true
}

// Release returns a TryAcquire slot.
func (s *Sched) Release() {
	s.mu.Lock()
	s.inUse--
	s.mu.Unlock()
}

// For calls body(worker, i) once for every index i in [0, n), claiming
// indices in ascending order. The calling goroutine runs as worker 0;
// extra goroutines join as workers 1, 2, … only while TryAcquire grants
// a slot, so worker indices are dense and below Workers(n), and a pool
// can keep one scratch workspace per worker. When n ≤ 1 or no slot is
// free, For starts no goroutine. A worker whose body returns false stops
// claiming indices; the others carry on. For returns once every worker
// has stopped. A panic in body, on any worker, ends the loop: the other
// workers finish their current index and stop, and For panics with the
// first value on the calling goroutine.
func (s *Sched) For(n int, body func(worker, i int) bool) {
	if s.Workers(n) > 1 && s.TryAcquire() {
		s.forShared(n, body)
		return
	}
	// Inline, so a loop that gets no extra worker allocates nothing here.
	for i := 0; i < n && body(0, i); i++ {
	}
}

// forShared is For once the first extra slot is held: workers claim
// indices off one shared counter. A panicking body stops every worker
// from claiming further indices; once all have returned, the first
// panic value is raised again on the caller's goroutine, where the
// caller's own recovery (such as a job runner's) can see it.
func (s *Sched) forShared(n int, body func(worker, i int) bool) {
	// Everything the workers share, in one allocation.
	var sh struct {
		next  atomic.Int64
		wg    sync.WaitGroup
		first sync.Once
		v     any
		set   bool
	}
	run := func(worker int) {
		defer func() {
			if r := recover(); r != nil {
				sh.first.Do(func() { sh.v, sh.set = r, true })
				sh.next.Store(int64(n))
			}
		}()
		for {
			i := int(sh.next.Add(1)) - 1
			if i >= n || !body(worker, i) {
				return
			}
		}
	}
	start := func(worker int) {
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			defer s.Release()
			run(worker)
		}()
	}
	start(1)
	for w := 2; w < s.Workers(n) && s.TryAcquire(); w++ {
		start(w)
	}
	run(0)
	sh.wg.Wait()
	if sh.set {
		panic(sh.v)
	}
}

// Workers bounds For(n, …)'s worker indices: they stay below
// min(n, capacity).
func (s *Sched) Workers(n int) int { return min(n, s.capacity) }

// HoldAll takes every free slot, so For runs on the calling goroutine
// alone until the returned release is called. Tests use it to compare a
// pool against the same pool with slots free.
func (s *Sched) HoldAll() (release func()) {
	held := 0
	for s.TryAcquire() {
		held++
	}
	return func() {
		for ; held > 0; held-- {
			s.Release()
		}
	}
}

// Stats snapshots the gauges and counters.
func (s *Sched) Stats() Stats {
	s.mu.Lock()
	st := Stats{Capacity: s.capacity, InUse: s.inUse}
	s.mu.Unlock()
	st.Granted = s.granted.Load()
	st.Denied = s.denied.Load()
	return st
}
