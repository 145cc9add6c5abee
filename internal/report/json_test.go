package report

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"specwise/internal/core"
	"specwise/internal/problem"
	"specwise/internal/stat"
)

func jsonFixtureResult() *core.Result {
	p := &problem.Problem{
		Name: "fixture",
		Specs: []problem.Spec{
			{Name: "A0", Unit: "dB", Kind: problem.GE, Bound: 40},
			{Name: "P", Unit: "mW", Kind: problem.LE, Bound: 2},
		},
		Design: []problem.Param{
			{Name: "W1", Unit: "um", Init: 10, Lo: 1, Hi: 100},
		},
		StatNames: []string{"s0"},
		Eval:      func(d, s, th []float64) ([]float64, error) { return []float64{50, 1}, nil },
	}
	mc := &core.MCResult{
		Estimate:   stat.NewYieldEstimate(95, 100),
		BadPerSpec: []int{5, 0},
		Moments:    make([]stat.Moments, 2),
		Evals:      100,
	}
	return &core.Result{
		Problem: p,
		Iterations: []core.Iteration{
			{
				Design:     []float64{10},
				ModelYield: 0.5,
				MCYield:    -1, // verification skipped
				Specs: []core.SpecState{
					{NominalMargin: 10, BadPerMille: 500, Beta: 1.5},
					{NominalMargin: 1, BadPerMille: 0, Beta: 3},
				},
			},
			{
				Design:     []float64{20},
				ModelYield: 0.96,
				MCYield:    0.95,
				MCResult:   mc,
				Specs: []core.SpecState{
					// NaN moments (e.g. broken samples only) must vanish
					// rather than poison the JSON encoding.
					{NominalMargin: 12, BadPerMille: 40, Beta: 2.1, MCMean: math.NaN(), MCSigma: math.NaN(), MCBad: 5},
					{NominalMargin: 1, BadPerMille: 0, Beta: 3, MCMean: 1.0, MCSigma: 0.1},
				},
			},
		},
		FinalDesign:    []float64{20},
		Simulations:    1234,
		ConstraintSims: 56,
	}
}

func TestJSONResultRoundTrips(t *testing.T) {
	out := JSONResult(jsonFixtureResult())
	blob, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	s := string(blob)
	if strings.Contains(s, "NaN") {
		t.Error("NaN leaked into the JSON encoding")
	}

	var back Result
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Problem != "fixture" || len(back.Iterations) != 2 {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	if back.Specs[0].Op != ">=" || back.Specs[1].Op != "<=" {
		t.Errorf("spec ops = %q, %q", back.Specs[0].Op, back.Specs[1].Op)
	}
	if back.Iterations[0].Label != "Initial" || back.Iterations[1].Label != "1st Iter." {
		t.Errorf("labels = %q, %q", back.Iterations[0].Label, back.Iterations[1].Label)
	}
	// Unverified iteration: no MC fields at all.
	if back.Iterations[0].MCYield != nil {
		t.Error("skipped verification produced an MC yield")
	}
	// Verified iteration: yield and Wilson interval present.
	it := back.Iterations[1]
	if it.MCYield == nil || *it.MCYield != 0.95 {
		t.Errorf("MCYield = %v", it.MCYield)
	}
	if it.MCYieldLo == nil || it.MCYieldHi == nil || !(*it.MCYieldLo < 0.95 && 0.95 < *it.MCYieldHi) {
		t.Errorf("Wilson interval = %v, %v", it.MCYieldLo, it.MCYieldHi)
	}
	// The NaN moment became an absent field, not a zero.
	if it.Specs[0].MCMean != nil {
		t.Errorf("NaN mean survived as %v", *it.Specs[0].MCMean)
	}
	if it.Specs[1].MCMean == nil || *it.Specs[1].MCMean != 1.0 {
		t.Errorf("finite mean lost: %v", it.Specs[1].MCMean)
	}
	if back.FinalDesign[0].Name != "W1" || back.FinalDesign[0].Value != 20 {
		t.Errorf("final design = %+v", back.FinalDesign)
	}
	if back.Simulations != 1234 || back.ConstraintSims != 56 {
		t.Errorf("effort counters = %d, %d", back.Simulations, back.ConstraintSims)
	}
}

func TestJSONVerification(t *testing.T) {
	p := &problem.Problem{
		Name:      "fixture",
		Specs:     []problem.Spec{{Name: "A0", Kind: problem.GE, Bound: 40}},
		StatNames: []string{"s0"},
		Eval:      func(d, s, th []float64) ([]float64, error) { return []float64{50}, nil },
	}
	var mom stat.Moments
	mom.Add(49)
	mom.Add(51)
	mc := &core.MCResult{
		Estimate:   stat.NewYieldEstimate(98, 100),
		BadPerSpec: []int{2},
		Moments:    []stat.Moments{mom},
		Evals:      100,
	}
	v := JSONVerification(p, mc)
	if v.Yield != 0.98 || v.Samples != 100 || v.Evals != 100 {
		t.Errorf("verification = %+v", v)
	}
	if v.Specs[0].Bad != 2 || v.Specs[0].Mean == nil || *v.Specs[0].Mean != 50 {
		t.Errorf("spec summary = %+v", v.Specs[0])
	}
	if _, err := json.Marshal(v); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}
