package core

import (
	"math"
	"testing"

	"specwise/internal/problem"
	"specwise/internal/stat"
)

// linear margin m = beta·σ − g·s with ‖g‖ = 1: P(fail) = Φ(−β) exactly.
func linearSpecProblem(beta float64) (*problem.Problem, []float64) {
	g := []float64{0.6, 0.8} // unit norm
	p := &problem.Problem{
		Name:      "is",
		Specs:     []problem.Spec{{Name: "m", Kind: problem.GE, Bound: 0}},
		Design:    []problem.Param{{Name: "d", Init: 0, Lo: -1, Hi: 1}},
		StatNames: []string{"s0", "s1"},
		Eval: func(d, s, th []float64) ([]float64, error) {
			return []float64{beta - g[0]*s[0] - g[1]*s[1]}, nil
		},
	}
	swc := []float64{beta * g[0], beta * g[1]} // boundary point nearest 0
	return p, swc
}

func TestImportanceSamplingMatchesAnalytic(t *testing.T) {
	for _, beta := range []float64{1.5, 2.5, 3.5} {
		p, swc := linearSpecProblem(beta)
		res, err := EstimateSpecFailureIS(p, []float64{0}, 0, nil, swc, 4000, 7)
		if err != nil {
			t.Fatal(err)
		}
		want := stat.NormalCDF(-beta)
		if math.Abs(res.PFail-want) > 4*res.StdErr+0.05*want {
			t.Errorf("beta %v: pFail = %v ± %v want %v", beta, res.PFail, res.StdErr, want)
		}
	}
}

func TestImportanceSamplingRareEvent(t *testing.T) {
	// β = 5: P(fail) ≈ 2.9e-7 — utterly invisible to 4000 plain MC
	// samples, but the shifted estimator resolves it to a few percent.
	p, swc := linearSpecProblem(5)
	res, err := EstimateSpecFailureIS(p, []float64{0}, 0, nil, swc, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := stat.NormalCDF(-5)
	if res.PFail <= 0 {
		t.Fatal("rare failure not resolved at all")
	}
	if math.Abs(res.PFail-want)/want > 0.2 {
		t.Errorf("pFail = %v want %v (±20%%)", res.PFail, want)
	}
	// Relative standard error must be far below plain MC's, which would
	// be sqrt(1/(N·p)) ≈ 29 at these numbers.
	if relErr := res.StdErr / res.PFail; relErr > 0.2 {
		t.Errorf("relative stderr = %v; importance sampling should resolve this", relErr)
	}
	if res.EffectiveN < 10 {
		t.Errorf("effective sample size = %v", res.EffectiveN)
	}
}

func TestImportanceSamplingValidation(t *testing.T) {
	p, swc := linearSpecProblem(2)
	if _, err := EstimateSpecFailureIS(p, []float64{0}, 5, nil, swc, 100, 1); err == nil {
		t.Error("bad spec index accepted")
	}
	if _, err := EstimateSpecFailureIS(p, []float64{0}, 0, nil, []float64{1}, 100, 1); err == nil {
		t.Error("bad swc dimension accepted")
	}
}

func TestImportanceSamplingDeterministic(t *testing.T) {
	p, swc := linearSpecProblem(3)
	a, err := EstimateSpecFailureIS(p, []float64{0}, 0, nil, swc, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateSpecFailureIS(p, []float64{0}, 0, nil, swc, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.PFail != b.PFail || a.StdErr != b.StdErr {
		t.Error("importance sampling not deterministic for a fixed seed")
	}
}
