package evalcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"specwise/internal/problem"
)

func TestSharedCrossViewHit(t *testing.T) {
	var calls atomic.Int64
	s := NewShared(0)
	pA := s.View("prob").Wrap(countingProblem(&calls))
	vB := s.View("prob")
	pB := vB.Wrap(countingProblem(&calls))

	d, st, th := []float64{1}, []float64{0.5, -0.25}, []float64{27}
	v1, err := pA.Eval(d, st, th)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := pB.Eval(d, st, th)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("simulator ran %d times across two views of one problem, want 1", calls.Load())
	}
	if v1[0] != v2[0] {
		t.Fatalf("cross-view hit returned %v, want %v", v2[0], v1[0])
	}
	if bs := vB.Stats(); bs.Hits != 1 || bs.CrossHits != 1 || bs.Misses != 0 {
		t.Fatalf("view B stats = %+v, want 1 hit / 1 crossHit / 0 miss", bs)
	}
	if ss := s.Stats(); ss.Hits != 1 || ss.CrossHits != 1 || ss.Misses != 1 {
		t.Fatalf("shared stats = %+v, want 1 hit / 1 crossHit / 1 miss", ss)
	}

	// A second hit from view B on its own... no — B never stored it, so
	// repeats stay cross-hits against A's entry.
	if _, err := pB.Eval(d, st, th); err != nil {
		t.Fatal(err)
	}
	if bs := vB.Stats(); bs.CrossHits != 2 {
		t.Fatalf("repeat cross-view hit not counted: %+v", bs)
	}
}

func TestSharedProblemIsolation(t *testing.T) {
	var calls atomic.Int64
	s := NewShared(0)
	pA := s.View("problem-one").Wrap(countingProblem(&calls))
	pB := s.View("problem-two").Wrap(countingProblem(&calls))

	d, st, th := []float64{1}, []float64{0, 0}, []float64{0}
	if _, err := pA.Eval(d, st, th); err != nil {
		t.Fatal(err)
	}
	if _, err := pB.Eval(d, st, th); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("distinct problems shared an entry (calls=%d, want 2)", calls.Load())
	}
	pp := s.PerProblem()
	if pp["problem-one"] != 1 || pp["problem-two"] != 1 {
		t.Fatalf("per-problem counts = %v", pp)
	}

	// Problem keys of different lengths must not alias into the float
	// section of the key.
	s2 := NewShared(0)
	k1 := s2.View("ab").key('e', nil, []float64{1}, nil, nil)
	k2 := s2.View("abc").key('e', nil, []float64{1}, nil, nil)
	if k1 == k2 {
		t.Fatal("problem keys of different lengths collided")
	}
}

func TestSharedInflightNotEvicted(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	var calls atomic.Int64
	s := NewShared(1)
	slow := s.View("p").Wrap(&problem.Problem{
		Eval: func(d, s, theta []float64) ([]float64, error) {
			calls.Add(1)
			started <- struct{}{}
			<-release
			return []float64{d[0]}, nil
		},
	})
	fastView := s.View("p")
	fast := fastView.Wrap(&problem.Problem{
		Eval: func(d, s, theta []float64) ([]float64, error) {
			calls.Add(1)
			return []float64{d[0]}, nil
		},
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, err := slow.Eval([]float64{1}, nil, nil); err != nil || v[0] != 1 {
			t.Errorf("slow eval = %v, %v", v, err)
		}
	}()
	<-started
	// Cap is 1 and the only entry is in-flight: inserting another must
	// not evict it (the waiter's rendezvous) — it overflows instead.
	if v, err := fast.Eval([]float64{2}, nil, nil); err != nil || v[0] != 2 {
		t.Fatalf("fast eval = %v, %v", v, err)
	}
	if st := s.Stats(); st.Overflow == 0 {
		t.Fatalf("expected overflow while sole entry in-flight, stats %+v", st)
	}
	if st := fastView.Stats(); st.Overflow != 1 || st.Evictions != 0 {
		t.Fatalf("inserting view stats = %+v, want 1 overflow / 0 evictions", st)
	}
	close(release)
	wg.Wait()
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
}

func TestSharedSingleflightAcrossViews(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	s := NewShared(0)
	mk := func() *problem.Problem {
		return &problem.Problem{Eval: func(d, sv, theta []float64) ([]float64, error) {
			calls.Add(1)
			<-release
			return []float64{d[0]}, nil
		}}
	}

	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		p := s.View("p").Wrap(mk()) // each goroutine is its own "job"
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.Eval([]float64{7}, nil, nil)
			if err != nil || v[0] != 7 {
				t.Errorf("eval = %v, %v", v, err)
			}
		}()
	}
	for s.Stats().Deduped < workers-1 {
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("simulator ran %d times for one shared point, want 1", calls.Load())
	}
}

func TestSharedConstraintScoping(t *testing.T) {
	// Constraints are keyed by d alone but must still be problem-scoped
	// and distinct from a full evaluation at the same d.
	var consCalls, evalCalls atomic.Int64
	mk := func() *problem.Problem {
		return &problem.Problem{
			Eval: func(d, sv, theta []float64) ([]float64, error) {
				evalCalls.Add(1)
				return []float64{d[0]}, nil
			},
			Constraints: func(d []float64) ([]float64, error) {
				consCalls.Add(1)
				return []float64{-d[0]}, nil
			},
		}
	}
	s := NewShared(0)
	pA := s.View("p1").Wrap(mk())
	pB := s.View("p2").Wrap(mk())
	d := []float64{3}
	if _, err := pA.Constraints(d); err != nil {
		t.Fatal(err)
	}
	if _, err := pA.Eval(d, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pB.Constraints(d); err != nil {
		t.Fatal(err)
	}
	if consCalls.Load() != 2 || evalCalls.Load() != 1 {
		t.Fatalf("cons=%d eval=%d, want 2/1 (problem-scoped, kind-disjoint keys)", consCalls.Load(), evalCalls.Load())
	}
	// Same problem, second view: constraint now hits cross-job.
	vB2 := s.View("p1")
	pA2 := vB2.Wrap(mk())
	if _, err := pA2.Constraints(d); err != nil {
		t.Fatal(err)
	}
	if st := vB2.Stats(); st.ConstraintHits != 1 {
		t.Fatalf("cross-view constraint stats = %+v", st)
	}
}

func TestSharedManyProblemsBounded(t *testing.T) {
	// A long-lived cache across many sweeps stays under its cap.
	var calls atomic.Int64
	s := NewShared(16)
	for prob := 0; prob < 8; prob++ {
		p := s.View(fmt.Sprintf("prob-%d", prob)).Wrap(countingProblem(&calls))
		for i := 0; i < 8; i++ {
			if _, err := p.Eval([]float64{float64(i)}, []float64{0, 0}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Stats().Entries > 16 {
		t.Fatalf("cache exceeded its cap: %d > 16", s.Stats().Entries)
	}
	if st := s.Stats(); st.Evictions != 64-16 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, 64-16)
	}
}

// Per-spec requests through a view follow the per-run rules and keep
// the cross-job classification: another view's spec-i entry answers
// spec i only.
func TestSharedCrossViewSpecHit(t *testing.T) {
	var full, perSpec atomic.Int64
	s := NewShared(0)
	pA := s.View("prob").Wrap(specProblem(&full, &perSpec, nil))
	vB := s.View("prob")
	pB := vB.Wrap(specProblem(&full, &perSpec, nil))
	d, q := []float64{1}, []float64{-1, 2}

	want, err := evalSpec(pA, d, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := evalSpec(pB, d, q, 0); err != nil || v != want {
		t.Fatalf("cross-view spec from spec entry = %v, %v; want %v", v, err, want)
	}
	if full.Load() != 0 || perSpec.Load() != 1 {
		t.Fatalf("simulator ran %d full / %d per-spec, want 0 / 1", full.Load(), perSpec.Load())
	}
	if bs := vB.Stats(); bs.Hits != 1 || bs.CrossHits != 1 || bs.Misses != 0 {
		t.Fatalf("view B stats = %+v, want 1 hit / 1 crossHit / 0 misses", bs)
	}

	// Spec 1 at q has no entry: a miss, owned by B.
	if _, err := evalSpec(pB, d, q, 1); err != nil {
		t.Fatal(err)
	}
	if perSpec.Load() != 2 || vB.Stats().Misses != 1 {
		t.Fatalf("spec-0 entry answered spec 1 (per-spec calls %d, B stats %+v)", perSpec.Load(), vB.Stats())
	}
	if ss := s.Stats(); ss.Entries != 2 || ss.Misses != 2 || ss.CrossHits != 1 {
		t.Fatalf("shared stats = %+v, want 2 entries / 2 misses / 1 crossHit", ss)
	}
}
