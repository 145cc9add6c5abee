package core

import (
	"context"
	"strings"
	"testing"

	"specwise/internal/linmodel"
	"specwise/internal/problem"
	"specwise/internal/testprob"
)

// analyticProblem is the shared closed-form fixture; see testprob.
func analyticProblem() *problem.Problem { return testprob.Analytic() }

func TestValidateRejectsBadProblems(t *testing.T) {
	p := analyticProblem()
	p.Design[0].Init = 99 // outside box
	if _, err := Optimize(context.Background(), p, Options{}); err == nil {
		t.Error("expected validation error for out-of-box init")
	}
	q := analyticProblem()
	q.Eval = nil
	if _, err := Optimize(context.Background(), q, Options{}); err == nil {
		t.Error("expected validation error for nil Eval")
	}
}

// Negative counts are refused up front, naming the field, instead of
// panicking in makeslice or failing after the initial analysis.
func TestNewOptimizerRejectsNegativeCounts(t *testing.T) {
	for _, tc := range []struct {
		field string
		opts  Options
	}{
		{"ModelSamples", Options{ModelSamples: -1}},
		{"VerifySamples", Options{VerifySamples: -1}},
		{"MaxIterations", Options{MaxIterations: -1}},
		{"RefineThetaPasses", Options{RefineThetaPasses: -2}},
	} {
		_, err := Optimize(context.Background(), analyticProblem(), tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s < 0: err = %v, want an error naming the field", tc.field, err)
		}
	}
}

// stubBackend is a minimal SearchBackend that stops after one step,
// exercising the engine/backend contract (the engine's feasible start,
// initial analysis and result assembly) without any real search
// strategy.
type stubBackend struct {
	steps int
	d     []float64
}

func (s *stubBackend) Init(_ context.Context, _ *Engine, start *Iteration, _ *linmodel.Estimator) error {
	s.d = start.Design
	return nil
}

func (s *stubBackend) Step(ctx context.Context, e *Engine) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	s.steps++
	return s.steps >= 1, nil
}

func (s *stubBackend) Final() []float64 { return s.d }

func TestEngineRunsRegisteredBackend(t *testing.T) {
	p := analyticProblem()
	opts := Options{Algorithm: "stub", ModelSamples: 500, SkipVerify: true, Seed: 3}
	opts.defaults()
	res, err := newEngine(p, opts).run(context.Background(), &stubBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "stub" {
		t.Errorf("result algorithm = %q, want stub", res.Algorithm)
	}
	if len(res.Iterations) != 1 {
		t.Fatalf("iterations = %d, want 1 (initial only)", len(res.Iterations))
	}
	if res.Simulations == 0 {
		t.Error("engine did not count simulations")
	}
	if len(res.FinalDesign) != p.NumDesign() {
		t.Errorf("final design has %d entries, want %d", len(res.FinalDesign), p.NumDesign())
	}
}

// Every listed backend resolves, and the empty name selects the default.
func TestBackendsResolve(t *testing.T) {
	for _, name := range append(Backends(), "") {
		if !KnownBackend(name) {
			t.Errorf("KnownBackend(%q) = false", name)
		}
	}
	if b, _ := newBackend(""); b == nil {
		t.Fatal("the empty name must select a backend")
	} else if _, ok := b.(*feasGuided); !ok {
		t.Errorf("the empty name selects %T, want the feasguided backend", b)
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	_, err := Optimize(context.Background(), analyticProblem(), Options{Algorithm: "no-such-search"})
	if err == nil {
		t.Fatal("expected an unknown-algorithm error")
	}
	if !strings.Contains(err.Error(), "no-such-search") {
		t.Errorf("error %q does not name the unknown algorithm", err)
	}
}
