package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTryAcquireCapacity(t *testing.T) {
	s := New(2)
	if !s.TryAcquire() || !s.TryAcquire() {
		t.Fatal("expected two slots")
	}
	if s.TryAcquire() {
		t.Fatal("expected denial past capacity")
	}
	st := s.Stats()
	if st.Capacity != 2 || st.InUse != 2 || st.Denied != 1 || st.Granted != 2 {
		t.Fatalf("stats = %+v", st)
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("expected slot after release")
	}
	s.Release()
	s.Release()
	if st := s.Stats(); st.InUse != 0 {
		t.Fatalf("InUse = %d after releases", st.InUse)
	}
}

func TestConcurrentStress(t *testing.T) {
	s := New(3)
	var held, maxHeld atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !s.TryAcquire() {
					continue
				}
				n := held.Add(1)
				for {
					old := maxHeld.Load()
					if n <= old || maxHeld.CompareAndSwap(old, n) {
						break
					}
				}
				held.Add(-1)
				s.Release()
			}
		}()
	}
	wg.Wait()
	if got := maxHeld.Load(); got > 3 {
		t.Fatalf("held slots exceeded capacity: %d > 3", got)
	}
	st := s.Stats()
	if st.InUse != 0 || st.Granted+st.Denied != 8*200 {
		t.Fatalf("slots leaked or attempts lost: %+v", st)
	}
}

// forCheck runs s.For over n indices and checks its contract: every
// index runs exactly once, worker indices stay below min(n, capacity),
// and no more than that many workers ever run at once. It returns the
// set of worker indices seen.
func forCheck(t *testing.T, s *Sched, n int) map[int]bool {
	t.Helper()
	limit := s.Workers(n)
	runs := make([]atomic.Int32, n)
	var active, peak atomic.Int32
	var mu sync.Mutex
	workers := map[int]bool{}
	s.For(n, func(w, i int) bool {
		a := active.Add(1)
		for {
			old := peak.Load()
			if a <= old || peak.CompareAndSwap(old, a) {
				break
			}
		}
		mu.Lock()
		workers[w] = true
		mu.Unlock()
		runs[i].Add(1)
		time.Sleep(20 * time.Microsecond) // let the extras overlap
		active.Add(-1)
		return true
	})
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("n=%d: index %d ran %d times", n, i, got)
		}
	}
	if p := int(peak.Load()); p > limit {
		t.Fatalf("n=%d: %d workers ran at once, want <= %d", n, p, limit)
	}
	for w := range workers {
		if w < 0 || w >= limit {
			t.Fatalf("n=%d: worker index %d outside [0, %d)", n, w, limit)
		}
	}
	if st := s.Stats(); st.InUse != 0 {
		t.Fatalf("n=%d: %d slots still held after For", n, st.InUse)
	}
	return workers
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8} {
		s := New(k)
		for _, n := range []int{0, 1, 2, 5, 64} {
			forCheck(t, s, n)
		}
	}
}

func TestForCallerRunsWhenSlotsHeld(t *testing.T) {
	s := New(4)
	release := s.HoldAll()
	before := s.Stats()
	if before.InUse != 4 {
		t.Fatalf("HoldAll took %d of 4 slots", before.InUse)
	}
	caller := 0
	s.For(100, func(w, _ int) bool {
		if w != 0 {
			t.Errorf("worker %d ran while every slot was held", w)
		}
		caller++ // unsynchronized on purpose: the race detector flags a second goroutine
		return true
	})
	if caller != 100 {
		t.Fatalf("caller ran %d of 100 indices", caller)
	}
	if got := s.Stats().Granted; got != before.Granted {
		t.Fatalf("For was granted %d slots while all were held", got-before.Granted)
	}
	release()
	if st := s.Stats(); st.InUse != 0 {
		t.Fatalf("release left %d slots held", st.InUse)
	}
}

func TestForStopsWorkerOnFalse(t *testing.T) {
	s := New(1)
	ran := 0
	s.For(10, func(_, i int) bool {
		ran++
		return i < 3
	})
	if ran != 4 {
		t.Fatalf("single worker ran %d indices, want 4 (stop after index 3)", ran)
	}
}

func TestForNested(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8} {
		s := New(k)
		const outer, inner = 6, 7
		var total atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.For(outer, func(_, _ int) bool {
				s.For(inner, func(_, _ int) bool {
					total.Add(1)
					time.Sleep(10 * time.Microsecond)
					return true
				})
				return true
			})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("capacity %d: nested For did not finish", k)
		}
		if got := total.Load(); got != outer*inner {
			t.Fatalf("capacity %d: nested For ran %d inner bodies, want %d", k, got, outer*inner)
		}
		if st := s.Stats(); st.InUse != 0 {
			t.Fatalf("capacity %d: %d slots still held", k, st.InUse)
		}
	}
}

// TestForPanicReachesCaller panics in the body, at index k or on the
// first index an extra worker takes, with slots free and held: For must
// raise the panic on the calling goroutine, only after every worker has
// stopped (no body runs once For has returned), with every slot
// released.
func TestForPanicReachesCaller(t *testing.T) {
	const n = 64
	for _, held := range []bool{false, true} {
		for _, k := range []int{0, 1, 31, n - 1, -1} { // -1: worker 1 panics
			s := New(4)
			release := func() {}
			if held {
				release = s.HoldAll()
			}
			var calls atomic.Int64
			got := func() (r any) {
				defer func() { r = recover() }()
				s.For(n, func(w, i int) bool {
					calls.Add(1)
					switch {
					case k >= 0 && i == k:
						panic(i)
					case k < 0 && w == 1:
						panic(-1)
					case k < 0 && w == 0:
						time.Sleep(time.Millisecond) // let worker 1 claim an index
					}
					time.Sleep(20 * time.Microsecond)
					return true
				})
				return nil
			}()
			after := calls.Load()
			time.Sleep(5 * time.Millisecond)
			if calls.Load() != after {
				t.Fatalf("held=%v k=%d: the body ran after For returned", held, k)
			}
			release()
			want := any(k)
			if k < 0 && held {
				want = nil // no worker 1 runs while the slots are held
			}
			if got != want {
				t.Fatalf("held=%v k=%d: For panicked with %v, want %v", held, k, got, want)
			}
			if st := s.Stats(); st.InUse != 0 {
				t.Fatalf("held=%v k=%d: %d slots still held", held, k, st.InUse)
			}
		}
	}
}
