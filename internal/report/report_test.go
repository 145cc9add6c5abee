package report

import (
	"strings"
	"testing"

	"specwise/internal/core"
	"specwise/internal/problem"
	"specwise/internal/stat"
)

func fakeResult() *core.Result {
	p := &problem.Problem{
		Name: "fake",
		Specs: []problem.Spec{
			{Name: "A0", Unit: "dB", Kind: problem.GE, Bound: 40},
			{Name: "P", Unit: "mW", Kind: problem.LE, Bound: 2},
		},
		Design: []problem.Param{
			{Name: "W", Unit: "µm", Init: 10, Lo: 1, Hi: 100},
		},
		StatNames: []string{"s"},
		Eval:      func(d, s, th []float64) ([]float64, error) { return []float64{50, 1}, nil },
	}
	mc := &core.MCResult{
		Estimate:   stat.NewYieldEstimate(90, 100),
		BadPerSpec: []int{10, 0},
	}
	return &core.Result{
		Problem: p,
		Iterations: []core.Iteration{
			{
				Design: []float64{10},
				Specs: []core.SpecState{
					{NominalMargin: -2.3, BadPerMille: 980.4, MCBad: 10, MCMean: 38, MCSigma: 2, Beta: -1.25},
					{NominalMargin: 0.5, BadPerMille: 0, MCMean: 1.5, MCSigma: 0.1, Beta: 3},
				},
				ModelYield: 0.1, MCYield: 0.9, MCResult: mc,
			},
			{
				Design: []float64{20},
				Specs: []core.SpecState{
					{NominalMargin: 4.7, BadPerMille: 0.9, MCMean: 45, MCSigma: 1},
					{NominalMargin: 0.6, BadPerMille: 0, MCMean: 1.4, MCSigma: 0.08},
				},
				ModelYield: 0.99, MCYield: 0.99, MCResult: mc,
			},
		},
		FinalDesign:    []float64{20},
		Simulations:    123,
		ConstraintSims: 7,
	}
}

func TestOptimizationTraceFormat(t *testing.T) {
	var b strings.Builder
	OptimizationTrace(&b, fakeResult())
	out := b.String()
	for _, want := range []string{
		"A0 [dB]", "P [mW]", "> 40", "< 2",
		"Initial", "1st Iter.",
		"980.4", "90.0%", "99.0%", "-1.25",
		"final design: W=20µm",
		"123 performance + 7 constraint",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestBlockLabels(t *testing.T) {
	for i, want := range []string{"Initial", "1st Iter.", "2nd Iter.", "3rd Iter.", "4th Iter."} {
		if got := blockLabel(i); got != want {
			t.Errorf("blockLabel(%d) = %q want %q", i, got, want)
		}
	}
}

func TestImprovementTable(t *testing.T) {
	var b strings.Builder
	ImprovementTable(&b, fakeResult(), 0, 1)
	out := b.String()
	if !strings.Contains(out, "A0") || !strings.Contains(out, "dmu") {
		t.Errorf("improvement table malformed:\n%s", out)
	}
	// A0: μ 38→45, distance to bound −2 → dμ/(μ−fb) = 7/−2 = −350%; the
	// sign convention follows the raw ratio, so just require the sigma
	// column: σ 2→1 → −50%.
	if !strings.Contains(out, "-50.0%") {
		t.Errorf("sigma reduction missing:\n%s", out)
	}
}
