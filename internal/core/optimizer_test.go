package core

import (
	"context"
	"strings"
	"testing"

	"specwise/internal/problem"
	"specwise/internal/testprob"
)

// analyticProblem is the shared closed-form fixture; see testprob.
func analyticProblem() *problem.Problem { return testprob.Analytic() }

func TestValidateRejectsBadProblems(t *testing.T) {
	p := analyticProblem()
	p.Design[0].Init = 99 // outside box
	if _, err := NewOptimizer(p, Options{}); err == nil {
		t.Error("expected validation error for out-of-box init")
	}
	q := analyticProblem()
	q.Eval = nil
	if _, err := NewOptimizer(q, Options{}); err == nil {
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
		_, err := NewOptimizer(analyticProblem(), tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s < 0: err = %v, want an error naming the field", tc.field, err)
		}
	}
}

// stubBackend is a minimal SearchBackend driving the engine through one
// analyze-and-record cycle, exercising the engine/backend contract
// without any real search strategy.
type stubBackend struct {
	name  string
	steps int
	d     []float64
}

func (s *stubBackend) Name() string { return s.name }

func (s *stubBackend) Init(ctx context.Context, e *Engine) error {
	s.d = e.Problem().InitialDesign()
	it, _, _, err := e.Analyze(ctx, s.d, e.Options().Seed)
	if err != nil {
		return err
	}
	e.Record(it)
	e.Emit("initial", 0, 0, it)
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
	RegisterBackend("stub-engine-test", func() SearchBackend {
		return &stubBackend{name: "stub-engine-test"}
	})
	p := analyticProblem()
	res, err := NewAndRun(p, Options{
		Algorithm:    "stub-engine-test",
		ModelSamples: 500, SkipVerify: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "stub-engine-test" {
		t.Errorf("result algorithm = %q, want stub-engine-test", res.Algorithm)
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
	if !KnownBackend("stub-engine-test") {
		t.Error("KnownBackend must see the registered stub")
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	_, err := NewOptimizer(analyticProblem(), Options{Algorithm: "no-such-search"})
	if err == nil {
		t.Fatal("expected an unknown-algorithm error")
	}
	if !strings.Contains(err.Error(), "no-such-search") {
		t.Errorf("error %q does not name the unknown algorithm", err)
	}
}

func TestRegisterBackendRejectsDuplicates(t *testing.T) {
	RegisterBackend("stub-dup-test", func() SearchBackend { return &stubBackend{name: "stub-dup-test"} })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	RegisterBackend("stub-dup-test", func() SearchBackend { return &stubBackend{name: "stub-dup-test"} })
}
