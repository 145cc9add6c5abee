package sched

import (
	"sync"
	"sync/atomic"
	"testing"
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
