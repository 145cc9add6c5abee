package evalcache

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"specwise/internal/problem"
)

// forEachCache runs a behaviour test against both uses of the one
// implementation: a private cache (New) and a view of a Shared cache.
func forEachCache(t *testing.T, maxEntries int, test func(t *testing.T, v *View)) {
	t.Helper()
	for _, c := range []struct {
		name string
		new  func(maxEntries int) *View
	}{
		{"private", New},
		{"shared", func(n int) *View { return NewShared(n).View("prob") }},
	} {
		t.Run(c.name, func(t *testing.T) { test(t, c.new(maxEntries)) })
	}
}

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
	forEachCache(t, 0, func(t *testing.T, c *View) {
		var calls atomic.Int64
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
		if st.Hits != 1 || st.Misses != 1 || st.CrossHits != 0 {
			t.Fatalf("stats = %+v, want 1 hit / 1 miss / 0 cross hits", st)
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
	})
}

func TestConstraintMemoization(t *testing.T) {
	forEachCache(t, 0, func(t *testing.T, c *View) {
		var calls atomic.Int64
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
	})
}

func TestNoConstraintsStaysNil(t *testing.T) {
	forEachCache(t, 0, func(t *testing.T, c *View) {
		var calls atomic.Int64
		p := countingProblem(&calls)
		p.Constraints = nil
		if q := c.Wrap(p); q.Constraints != nil {
			t.Fatal("Wrap invented a Constraints function")
		}
		if q := c.PassThrough(p); q.Constraints != nil {
			t.Fatal("PassThrough invented a Constraints function")
		}
	})
}

func TestSingleflightDedup(t *testing.T) {
	forEachCache(t, 0, func(t *testing.T, c *View) {
		var calls atomic.Int64
		release := make(chan struct{})
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
	})
}

func TestErrorsAreNotMemoized(t *testing.T) {
	forEachCache(t, 0, func(t *testing.T, c *View) {
		var calls atomic.Int64
		boom := errors.New("boom")
		fail := true
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
		if c.shared.Stats().Entries != 0 {
			t.Fatal("error entry left in cache")
		}
		fail = false
		if _, err := p.Eval([]float64{1}, nil, nil); err != nil {
			t.Fatalf("retry after error failed: %v", err)
		}
		if calls.Load() != 2 {
			t.Fatalf("error was memoized (calls=%d)", calls.Load())
		}
		// The retry's un-publish must not have counted as an LRU eviction.
		if st := c.shared.Stats(); st.Evictions != 0 {
			t.Fatalf("error un-publish counted as eviction: %+v", st)
		}
	})
}

// TestPanicSettlesEntry simulates a point whose first simulation panics
// while a second caller waits on it: the panic must reach the caller
// that ran the simulation, the waiter must get errPanicked instead of
// blocking forever, and a retry must simulate the point again.
func TestPanicSettlesEntry(t *testing.T) {
	forEachCache(t, 0, func(t *testing.T, c *View) {
		release := make(chan struct{})
		var calls atomic.Int64
		p := c.Wrap(&problem.Problem{Eval: func(d, s, theta []float64) ([]float64, error) {
			if calls.Add(1) == 1 {
				<-release
				panic("simulator exploded")
			}
			return []float64{d[0]}, nil
		}})
		panicked := make(chan any, 1)
		go func() {
			defer func() { panicked <- recover() }()
			p.Eval([]float64{7}, nil, nil) //nolint:errcheck // panics
		}()
		for calls.Load() == 0 {
		}
		waited := make(chan error, 1)
		go func() {
			_, err := p.Eval([]float64{7}, nil, nil)
			waited <- err
		}()
		for c.Stats().Deduped < 1 {
		}
		close(release)
		if r := <-panicked; r != "simulator exploded" {
			t.Fatalf("computing caller recovered %v, want the simulator's panic", r)
		}
		if err := <-waited; !errors.Is(err, errPanicked) {
			t.Fatalf("waiter got %v, want errPanicked", err)
		}
		v, err := p.Eval([]float64{7}, nil, nil)
		if err != nil || v[0] != 7 || calls.Load() != 2 {
			t.Fatalf("retry after the panic = %v, %v after %d simulations, want 7 after 2", v, err, calls.Load())
		}
	})
}

// At capacity a new point still simulates and is stored; the least
// recently used completed entry makes room. Values are bit-identical to
// the simulator's whether they come from a resident, a re-simulated or
// an evicted-and-recomputed point.
func TestLRUEviction(t *testing.T) {
	forEachCache(t, 2, func(t *testing.T, c *View) {
		var calls, rawCalls atomic.Int64
		p := c.Wrap(countingProblem(&calls))
		raw := countingProblem(&rawCalls)

		eval := func(x float64) {
			t.Helper()
			d, s := []float64{x}, []float64{0.1, 0.2}
			v, err := p.Eval(d, s, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := raw.Eval(d, s, nil)
			if math.Float64bits(v[0]) != math.Float64bits(want[0]) {
				t.Fatalf("eval(%v) = %v, want the simulator's %v bit for bit", x, v[0], want[0])
			}
		}
		eval(0)
		eval(1)
		eval(2) // evicts 0; the new point is stored
		if c.shared.Stats().Entries != 2 {
			t.Fatalf("cache holds %d entries, cap 2", c.shared.Stats().Entries)
		}
		if st := c.shared.Stats(); st.Evictions != 1 || st.Overflow != 0 {
			t.Fatalf("shared stats = %+v, want 1 eviction / 0 overflow", st)
		}
		if st := c.Stats(); st.Evictions != 1 || st.Overflow != 0 {
			t.Fatalf("view stats = %+v, want 1 eviction / 0 overflow", st)
		}

		// The newest point is resident (a hit); the evicted oldest re-simulates.
		before := calls.Load()
		eval(2)
		if calls.Load() != before {
			t.Fatal("newest entry was not resident after eviction")
		}
		eval(0)
		if calls.Load() != before+1 {
			t.Fatal("evicted entry answered from cache")
		}

		// Touching an entry protects it: hit 2, insert 3 → 0 (LRU) evicted, 2 stays.
		eval(2)
		eval(3)
		before = calls.Load()
		eval(2)
		if calls.Load() != before {
			t.Fatal("recently used entry was evicted instead of the LRU one")
		}
		if st := c.shared.Stats(); st.Evictions != 3 {
			t.Fatalf("shared stats = %+v, want 3 evictions", st)
		}
		if st := c.Stats(); st.Evictions != 3 {
			t.Fatalf("view stats = %+v, want 3 evictions", st)
		}
	})
}

func TestKeyDisambiguation(t *testing.T) {
	// The same multiset of floats split differently across (d, s, θ)
	// must produce different keys.
	v := New(0)
	a := v.key('e', 0, []float64{1, 2}, []float64{3}, nil)
	b := v.key('e', 0, []float64{1}, []float64{2, 3}, nil)
	if a == b {
		t.Fatal("key collision across segment boundaries")
	}
	if v.key('e', 0, nil, []float64{0}, nil) == v.key('e', 0, nil, []float64{math.Copysign(0, -1)}, nil) {
		t.Fatal("0.0 and -0.0 must key differently (bit-exact policy)")
	}
	// A per-spec key differs from the full key and from every other
	// spec's key at the same point.
	d, s := []float64{1}, []float64{2, 3}
	full, s0, s1 := v.key('e', 0, d, s, nil), v.key('s', 0, d, s, nil), v.key('s', 1, d, s, nil)
	if full == s0 || full == s1 || s0 == s1 {
		t.Fatal("per-spec key collides with the full key or another spec's key")
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

// A spec-i entry answers spec i only: not spec j, and not a full request.
func TestSpecEntryAnswersOnlyItsSpec(t *testing.T) {
	forEachCache(t, 0, func(t *testing.T, c *View) {
		var full, perSpec atomic.Int64
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
		if st := c.Stats(); st.Hits != 1 || st.Misses != 3 || c.shared.Stats().Entries != 3 {
			t.Errorf("stats = %+v, len %d, want 1 hit / 3 misses, 3 entries (2 per-spec, 1 full)", st, c.shared.Stats().Entries)
		}
	})
}

// Each per-spec miss is one simulation and hits cost none: the view's
// Misses count exactly the simulator calls behind it.
func TestSpecMissCountedOnce(t *testing.T) {
	forEachCache(t, 0, func(t *testing.T, c *View) {
		var full, perSpec atomic.Int64
		p := c.Wrap(specProblem(&full, &perSpec, nil))
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
		if st := c.Stats(); st.Misses != 4 || st.Hits != 8 || perSpec.Load() != 4 || full.Load() != 0 {
			t.Errorf("stats = %+v after %d per-spec / %d full calls, want 4 misses / 8 hits: two points × two specs",
				st, perSpec.Load(), full.Load())
		}
	})
}

func TestSpecErrorsAreNotMemoized(t *testing.T) {
	forEachCache(t, 0, func(t *testing.T, c *View) {
		var full, perSpec atomic.Int64
		var fail atomic.Bool
		fail.Store(true)
		p := c.Wrap(specProblem(&full, &perSpec, &fail))
		d, s := []float64{1}, []float64{0.5, 0.25}
		if _, err := p.EvalSpec(d, s, nil, 1); err == nil {
			t.Fatal("EvalSpec error was swallowed")
		}
		if c.shared.Stats().Entries != 0 {
			t.Fatal("error entry left in cache")
		}
		fail.Store(false)
		v, err := p.EvalSpec(d, s, nil, 1)
		if err != nil {
			t.Fatalf("retry after error failed: %v", err)
		}
		if v != 0.25 || perSpec.Load() != 2 {
			t.Errorf("retry = %v after %d per-spec calls, want 0.25 after 2", v, perSpec.Load())
		}
	})
}

func TestNoEvalSpecStaysNil(t *testing.T) {
	forEachCache(t, 0, func(t *testing.T, c *View) {
		var calls atomic.Int64
		if q := c.Wrap(countingProblem(&calls)); q.EvalSpec != nil {
			t.Fatal("Wrap invented an EvalSpec function")
		}
		if q := c.PassThrough(countingProblem(&calls)); q.EvalSpec != nil {
			t.Fatal("PassThrough invented an EvalSpec function")
		}
	})
}

// PassThrough runs every call, stores nothing and counts each call as
// one miss in the view and in the shared totals; errors and panics come
// back as the underlying Eval raised them, and failed calls count too.
func TestPassThroughCountsWithoutStoring(t *testing.T) {
	forEachCache(t, 0, func(t *testing.T, c *View) {
		var calls atomic.Int64
		base := countingProblem(&calls)
		p := c.PassThrough(base)
		d, s := []float64{1}, []float64{0.5, 0.25}
		for rep := 0; rep < 3; rep++ {
			if v, err := p.Eval(d, s, nil); err != nil || v[0] != 2.75 {
				t.Fatalf("Eval = %v, %v; want [2.75]", v, err)
			}
		}
		if calls.Load() != 3 {
			t.Errorf("underlying calls = %d, want 3", calls.Load())
		}
		if st := c.Stats(); st != (Stats{Misses: 3}) {
			t.Errorf("view stats = %+v, want 3 misses", st)
		}
		if sh := c.shared.Stats(); sh != (SharedStats{Misses: 3}) {
			t.Errorf("shared stats = %+v, want 3 misses and no entries", sh)
		}

		// A memoized lookup of the same point still simulates.
		if _, err := c.Wrap(base).Eval(d, s, nil); err != nil || calls.Load() != 4 {
			t.Fatalf("memoized lookup after pass-through: %d calls, err %v; want a miss", calls.Load(), err)
		}

		fail := c.PassThrough(&problem.Problem{Eval: func(d, s, theta []float64) ([]float64, error) {
			return nil, errors.New("simulator failure")
		}})
		if _, err := fail.Eval(d, s, nil); err == nil || err.Error() != "simulator failure" {
			t.Errorf("Eval error = %v, want the underlying error", err)
		}
		boom := c.PassThrough(&problem.Problem{Eval: func(d, s, theta []float64) ([]float64, error) {
			panic("boom")
		}})
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("recovered %v, want the underlying panic", r)
				}
			}()
			_, _ = boom.Eval(d, s, nil)
		}()
		if st, sh := c.Stats(), c.shared.Stats(); st.Misses != 6 || sh.Misses != 6 || sh.Entries != 1 {
			t.Errorf("after errors: view %+v, shared %+v; want 6 misses each, 1 entry", st, sh)
		}

		// The original problem stays uncounted.
		if _, err := base.Eval(d, s, nil); err != nil || c.Stats().Misses != 6 {
			t.Errorf("original Eval: err %v, view %+v; want no new miss", err, c.Stats())
		}
	})
}

// Pass-through EvalSpec and Constraints calls are counted like Eval —
// a per-spec call as a miss, a constraint call as a constraint miss —
// and, like Eval, leave nothing in the cache.
func TestPassThroughCountsSpecAndConstraints(t *testing.T) {
	forEachCache(t, 0, func(t *testing.T, c *View) {
		var full, perSpec, cons atomic.Int64
		base := specProblem(&full, &perSpec, nil)
		base.Constraints = func(d []float64) ([]float64, error) {
			cons.Add(1)
			return []float64{d[0]}, nil
		}
		p := c.PassThrough(base)
		d, s := []float64{1}, []float64{0.5, 0.25}
		for rep := 0; rep < 2; rep++ {
			for i := 0; i < 2; i++ {
				if v, err := p.EvalSpec(d, s, nil, i); err != nil || v != [2]float64{2, 0.25}[i] {
					t.Fatalf("EvalSpec(%d) = %v, %v", i, v, err)
				}
			}
			if _, err := p.Constraints(d); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Eval(d, s, nil); err != nil {
			t.Fatal(err)
		}
		if perSpec.Load() != 4 || cons.Load() != 2 || full.Load() != 1 {
			t.Errorf("simulator ran %d per-spec / %d constraint / %d full, want 4 / 2 / 1",
				perSpec.Load(), cons.Load(), full.Load())
		}
		if st := c.Stats(); st != (Stats{Misses: 5, ConstraintMisses: 2}) {
			t.Errorf("view stats = %+v, want 5 misses / 2 constraint misses", st)
		}
		if sh := c.shared.Stats(); sh != (SharedStats{Misses: 7}) {
			t.Errorf("shared stats = %+v, want 7 misses and no entries", sh)
		}
	})
}

// Concurrent pass-through calls are each counted exactly once.
func TestPassThroughConcurrentCounting(t *testing.T) {
	forEachCache(t, 0, func(t *testing.T, c *View) {
		var calls atomic.Int64
		p := c.PassThrough(countingProblem(&calls))
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					_, _ = p.Eval([]float64{1}, []float64{0, 0}, nil)
					_, _ = p.Constraints([]float64{1})
				}
			}()
		}
		wg.Wait()
		if st := c.Stats(); st.Misses != 800 || st.ConstraintMisses != 800 || calls.Load() != 1600 {
			t.Errorf("stats = %+v after %d calls, want 800 misses / 800 constraint misses", st, calls.Load())
		}
	})
}
