package problem_test

import (
	"errors"
	"testing"

	"specwise/internal/evalcache"
	"specwise/internal/problem"
)

// A problem's simulator calls are counted by the evaluation-cache view
// that wraps it; these tests check that counting from the problem's side:
// every call through the instrumented copy counts, the original problem
// stays uncounted, errors come back unchanged and nil functions stay nil.

func countedProblem() *problem.Problem {
	return &problem.Problem{
		Name:  "t",
		Specs: []problem.Spec{{Name: "a", Kind: problem.GE, Bound: 2}},
		Eval: func(d, s, th []float64) ([]float64, error) {
			return []float64{d[0]}, nil
		},
		Constraints: func(d []float64) ([]float64, error) {
			return []float64{1 - d[0]}, nil
		},
	}
}

func TestCounterInstrument(t *testing.T) {
	p := countedProblem()
	v := evalcache.New(0)
	q := v.PassThrough(p)
	d1 := []float64{1}
	for i := 0; i < 3; i++ {
		if _, err := q.Eval(d1, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Constraints([]float64{0}); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Misses != 3 || st.ConstraintMisses != 1 {
		t.Errorf("counts = %d/%d, want 3/1", st.Misses, st.ConstraintMisses)
	}
	// The original problem stays uninstrumented.
	if _, err := p.Eval(d1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Constraints(d1); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Misses != 3 || st.ConstraintMisses != 1 {
		t.Errorf("original calls leaked into the count: %+v", st)
	}
}

func TestInstrumentPreservesErrors(t *testing.T) {
	p := countedProblem()
	sentinel := errors.New("boom")
	p.Eval = func(d, s, th []float64) ([]float64, error) { return nil, sentinel }
	p.Constraints = func(d []float64) ([]float64, error) { return nil, sentinel }
	for _, tc := range []struct {
		name string
		wrap func(*evalcache.View, *problem.Problem) *problem.Problem
	}{
		{"pass-through", (*evalcache.View).PassThrough},
		{"memoized", (*evalcache.View).Wrap},
	} {
		name, v := tc.name, evalcache.New(0)
		q := tc.wrap(v, p)
		if _, err := q.Eval([]float64{1}, nil, nil); !errors.Is(err, sentinel) {
			t.Errorf("%s: Eval error %v not propagated", name, err)
		}
		if _, err := q.Constraints([]float64{1}); !errors.Is(err, sentinel) {
			t.Errorf("%s: Constraints error %v not propagated", name, err)
		}
		if st := v.Stats(); st.Misses != 1 || st.ConstraintMisses != 1 {
			t.Errorf("%s: failed calls not counted: %+v", name, st)
		}
	}
}

func TestInstrumentNilConstraints(t *testing.T) {
	p := countedProblem()
	p.Constraints = nil
	v := evalcache.New(0)
	if q := v.PassThrough(p); q.Constraints != nil || q.EvalSpec != nil {
		t.Error("nil Constraints and EvalSpec must stay nil")
	}
	if q := v.Wrap(p); q.Constraints != nil || q.EvalSpec != nil {
		t.Error("nil Constraints and EvalSpec must stay nil")
	}
}
