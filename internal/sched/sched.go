// Package sched is the process-wide compute scheduler: one semaphore
// shared by every parallel pool — AC-sweep workers, finite-difference
// gradient workers, Monte-Carlo verification workers and the coordinate
// search's sample blocks.
// It exists so those pools, which nest freely (an AC sweep fans out
// inside a gradient probe that fans out inside a worst-case search), can
// together size themselves to the machine instead of multiplying worker
// counts.
//
// Pools acquire extra-worker slots with the non-blocking TryAcquire. A
// denied TryAcquire is never an error — every pool follows the
// caller-runs pattern, where the requesting goroutine processes work
// itself and extra workers are pure bonus — so no caller ever waits on
// the scheduler and nested pools cannot deadlock.
//
// Determinism is untouched by construction: the scheduler only decides
// how many goroutines run concurrently, and every pool it gates writes
// results by index (or through the bit-exact evaluation cache), so
// results are identical for any capacity, including zero.
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

// Stats snapshots the gauges and counters.
func (s *Sched) Stats() Stats {
	s.mu.Lock()
	st := Stats{Capacity: s.capacity, InUse: s.inUse}
	s.mu.Unlock()
	st.Granted = s.granted.Load()
	st.Denied = s.denied.Load()
	return st
}
