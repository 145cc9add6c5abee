package evalcache

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"specwise/internal/problem"
)

// countingProblem builds a problem whose Eval tallies real invocations.
func countingProblem(calls *atomic.Int64) *problem.Problem {
	return &problem.Problem{
		Name:      "synthetic",
		Specs:     []problem.Spec{{Name: "f", Kind: problem.GE, Bound: 0}},
		Design:    []problem.Param{{Name: "d0", Init: 1, Lo: 0, Hi: 2}},
		StatNames: []string{"s0", "s1"},
		Eval: func(d, s, theta []float64) ([]float64, error) {
			calls.Add(1)
			return []float64{d[0] + 2*s[0] + 3*s[1]}, nil
		},
		Constraints: func(d []float64) ([]float64, error) {
			calls.Add(1)
			return []float64{d[0] - 0.5}, nil
		},
	}
}

func TestHitMissAndValues(t *testing.T) {
	var calls atomic.Int64
	c := New(0)
	p := c.Wrap(countingProblem(&calls))

	d, s, th := []float64{1}, []float64{0.5, -0.25}, []float64{27}
	v1, err := p.Eval(d, s, th)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := p.Eval(d, s, th)
	if err != nil {
		t.Fatal(err)
	}
	if v1[0] != v2[0] {
		t.Fatalf("cached value %v != fresh value %v", v2[0], v1[0])
	}
	if calls.Load() != 1 {
		t.Fatalf("simulator ran %d times, want 1", calls.Load())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// A returned slice is a defensive copy: corrupting it must not
	// poison later hits.
	v2[0] = math.NaN()
	v3, _ := p.Eval(d, s, th)
	if v3[0] != v1[0] {
		t.Fatalf("cache poisoned through returned slice: %v", v3[0])
	}

	// Different point in any of the three coordinates misses.
	if _, err := p.Eval([]float64{1.0000001}, s, th); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("distinct design point did not re-simulate (calls=%d)", calls.Load())
	}
}

func TestConstraintMemoization(t *testing.T) {
	var calls atomic.Int64
	c := New(0)
	p := c.Wrap(countingProblem(&calls))
	for i := 0; i < 3; i++ {
		if _, err := p.Constraints([]float64{1.25}); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("constraint simulator ran %d times, want 1", calls.Load())
	}
	st := c.Stats()
	if st.ConstraintHits != 2 || st.ConstraintMisses != 1 {
		t.Fatalf("stats = %+v, want 2 constraint hits / 1 miss", st)
	}
}

func TestNoConstraintsStaysNil(t *testing.T) {
	var calls atomic.Int64
	p := countingProblem(&calls)
	p.Constraints = nil
	if q := New(0).Wrap(p); q.Constraints != nil {
		t.Fatal("Wrap invented a Constraints function")
	}
}

func TestSingleflightDedup(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	c := New(0)
	p := c.Wrap(&problem.Problem{
		Eval: func(d, s, theta []float64) ([]float64, error) {
			calls.Add(1)
			<-release // hold every in-flight simulation open
			return []float64{d[0]}, nil
		},
	})

	const workers = 8
	var wg sync.WaitGroup
	results := make([]float64, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.Eval([]float64{7}, nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = v[0]
		}()
	}
	// Let the goroutines pile up on the same key, then release the one
	// simulation they share.
	for c.Stats().Deduped < workers-1 {
	}
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("simulator ran %d times for one point, want 1", calls.Load())
	}
	for _, v := range results {
		if v != 7 {
			t.Fatalf("waiter got %v, want 7", v)
		}
	}
	if st := c.Stats(); st.Deduped != workers-1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want %d deduped / 1 miss", st, workers-1)
	}
}

func TestErrorsAreNotMemoized(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	fail := true
	c := New(0)
	p := c.Wrap(&problem.Problem{
		Eval: func(d, s, theta []float64) ([]float64, error) {
			calls.Add(1)
			if fail {
				return nil, boom
			}
			return []float64{1}, nil
		},
	})
	if _, err := p.Eval([]float64{1}, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	fail = false
	if _, err := p.Eval([]float64{1}, nil, nil); err != nil {
		t.Fatalf("retry after error failed: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("error was memoized (calls=%d)", calls.Load())
	}
}

func TestCapacityOverflowStillComputes(t *testing.T) {
	var calls atomic.Int64
	c := New(2)
	p := c.Wrap(countingProblem(&calls))
	for i := 0; i < 4; i++ {
		v, err := p.Eval([]float64{float64(i)}, []float64{0, 0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v[0] != float64(i) {
			t.Fatalf("overflowed eval returned %v, want %v", v[0], float64(i))
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache stored %d entries, capacity 2", c.Len())
	}
	if st := c.Stats(); st.Overflow != 2 {
		t.Fatalf("stats = %+v, want 2 overflow", st)
	}
}

func TestKeyDisambiguation(t *testing.T) {
	// The same multiset of floats split differently across (d, s, θ)
	// must produce different keys.
	a := evalKey([]float64{1, 2}, []float64{3}, nil)
	b := evalKey([]float64{1}, []float64{2, 3}, nil)
	if a == b {
		t.Fatal("key collision across segment boundaries")
	}
	if evalKey(nil, []float64{0}, nil) == evalKey(nil, []float64{math.Copysign(0, -1)}, nil) {
		t.Fatal("0.0 and -0.0 must key differently (bit-exact policy)")
	}
}

// specProblem builds a two-spec problem whose Eval and EvalSpec tally
// their real invocations separately. EvalSpec fails while *fail is set.
func specProblem(full, perSpec *atomic.Int64, fail *atomic.Bool) *problem.Problem {
	f := func(d, s []float64, i int) float64 {
		if i == 0 {
			return d[0] + 2*s[0]
		}
		return d[0] - 3*s[1]
	}
	return &problem.Problem{
		Specs:     []problem.Spec{{Name: "f0"}, {Name: "f1"}},
		StatNames: []string{"s0", "s1"},
		Eval: func(d, s, theta []float64) ([]float64, error) {
			full.Add(1)
			return []float64{f(d, s, 0), f(d, s, 1)}, nil
		},
		EvalSpec: func(d, s, theta []float64, i int) (float64, error) {
			perSpec.Add(1)
			if fail != nil && fail.Load() {
				return 0, errors.New("boom")
			}
			return f(d, s, i), nil
		},
	}
}

// A full entry answers a per-spec request for any spec, as a hit.
func TestSpecAnsweredByFullEntry(t *testing.T) {
	var full, perSpec atomic.Int64
	c := New(0)
	p := c.Wrap(specProblem(&full, &perSpec, nil))
	d, s := []float64{1}, []float64{0.5, 0.25}
	vals, err := p.Eval(d, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		v, err := p.EvalSpec(d, s, nil, i)
		if err != nil {
			t.Fatal(err)
		}
		if v != vals[i] {
			t.Errorf("spec %d: %v from the full entry, want %v", i, v, vals[i])
		}
	}
	if full.Load() != 1 || perSpec.Load() != 0 {
		t.Errorf("simulator ran %d full / %d per-spec, want 1 / 0", full.Load(), perSpec.Load())
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss", st)
	}
}

// A spec-i entry answers spec i only: not spec j, and not a full request.
func TestSpecEntryAnswersOnlyItsSpec(t *testing.T) {
	var full, perSpec atomic.Int64
	c := New(0)
	p := c.Wrap(specProblem(&full, &perSpec, nil))
	d, s := []float64{1}, []float64{0.5, 0.25}
	for _, i := range []int{0, 0, 1} {
		if _, err := p.EvalSpec(d, s, nil, i); err != nil {
			t.Fatal(err)
		}
	}
	if perSpec.Load() != 2 {
		t.Errorf("per-spec simulator ran %d times, want 2 (spec 0 once, spec 1 once)", perSpec.Load())
	}
	if _, err := p.Eval(d, s, nil); err != nil {
		t.Fatal(err)
	}
	if full.Load() != 1 {
		t.Errorf("a per-spec entry answered a full request (full calls %d)", full.Load())
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 3 || c.Len() != 1 {
		t.Errorf("stats = %+v, len %d, want 1 hit / 3 misses, 1 full entry", st, c.Len())
	}
}

// With the counter between cache and simulator, each per-spec miss is
// one simulation and hits cost none.
func TestSpecMissCountedOnce(t *testing.T) {
	var full, perSpec atomic.Int64
	var counter problem.Counter
	c := New(0)
	p := c.Wrap(counter.Instrument(specProblem(&full, &perSpec, nil)))
	d := []float64{1}
	for rep := 0; rep < 3; rep++ {
		for _, s := range [][]float64{{0.5, 0.25}, {-1, 2}} {
			for i := 0; i < 2; i++ {
				if _, err := p.EvalSpec(d, s, nil, i); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if counter.Evals() != 4 || perSpec.Load() != 4 {
		t.Errorf("counted %d simulations (%d ran), want 4: two points × two specs", counter.Evals(), perSpec.Load())
	}
	if st := c.Stats(); st.Misses != 4 || st.Hits != 8 {
		t.Errorf("stats = %+v, want 4 misses / 8 hits", st)
	}
}

func TestSpecErrorsAreNotMemoized(t *testing.T) {
	var full, perSpec atomic.Int64
	var fail atomic.Bool
	fail.Store(true)
	c := New(0)
	p := c.Wrap(specProblem(&full, &perSpec, &fail))
	d, s := []float64{1}, []float64{0.5, 0.25}
	if _, err := p.EvalSpec(d, s, nil, 1); err == nil {
		t.Fatal("EvalSpec error was swallowed")
	}
	fail.Store(false)
	v, err := p.EvalSpec(d, s, nil, 1)
	if err != nil {
		t.Fatalf("retry after error failed: %v", err)
	}
	if v != 0.25 || perSpec.Load() != 2 {
		t.Errorf("retry = %v after %d per-spec calls, want 0.25 after 2", v, perSpec.Load())
	}
}

func TestNoEvalSpecStaysNil(t *testing.T) {
	var calls atomic.Int64
	if q := New(0).Wrap(countingProblem(&calls)); q.EvalSpec != nil {
		t.Fatal("Wrap invented an EvalSpec function")
	}
}
