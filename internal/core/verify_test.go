package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"specwise/internal/problem"
	"specwise/internal/rng"
	"specwise/internal/sched"
	"specwise/internal/stat"
	"specwise/internal/testprob"
)

// TestVerifyMCWorkerDeterminism pins the verification pool's contract:
// the sample stream is drawn up front and results land by index, so the
// estimate, per-spec counts and moments are bit-identical however many
// workers join. The reference runs with every scheduler slot held, so
// the caller evaluates every sample alone.
func TestVerifyMCWorkerDeterminism(t *testing.T) {
	p := analyticProblem()
	thetas := [][]float64{{0}, {0}}
	run := func() *MCResult {
		mc, err := VerifyMCContext(context.Background(), p, p.InitialDesign(), thetas, 400, 42, 0)
		if err != nil {
			t.Fatal(err)
		}
		return mc
	}
	release := sched.Default().HoldAll()
	ref := run()
	release()
	for rep := 0; rep < 3; rep++ { // repeated runs with slots free
		got := run()
		if got.Estimate != ref.Estimate {
			t.Fatalf("slots free, run %d: estimate %+v, want %+v", rep, got.Estimate, ref.Estimate)
		}
		if got.Evals != ref.Evals {
			t.Fatalf("slots free, run %d: evals %d, want %d", rep, got.Evals, ref.Evals)
		}
		for i := range ref.BadPerSpec {
			if got.BadPerSpec[i] != ref.BadPerSpec[i] {
				t.Fatalf("slots free, run %d: BadPerSpec[%d] = %d, want %d", rep, i, got.BadPerSpec[i], ref.BadPerSpec[i])
			}
			gm, rm := got.Moments[i], ref.Moments[i]
			if math.Float64bits(gm.Mean()) != math.Float64bits(rm.Mean()) ||
				math.Float64bits(gm.Sigma()) != math.Float64bits(rm.Sigma()) {
				t.Fatalf("slots free, run %d: moments[%d] = (%v, %v), want (%v, %v)",
					rep, i, gm.Mean(), gm.Sigma(), rm.Mean(), rm.Sigma())
			}
		}
	}
}

// TestVerifyMCMatchesClosedForm pins the Monte-Carlo verifier to the
// analytic problem's exact yield. At the worst-case corner θ = +1 spec f
// is d0 − 2.1 + 0.5·s0 ≥ 0 and spec g is 5.9 − d0 − d1 + 0.5·s1 ≥ 0, so
// with independent standard-normal s0, s1 the per-spec worst-case
// distances are β_f = 2(d0 − 2.1) and β_g = 2(5.9 − d0 − d1), and the
// yield is exactly Φ(β_f)·Φ(β_g). The estimate must agree within four
// binomial standard errors.
func TestVerifyMCMatchesClosedForm(t *testing.T) {
	p := testprob.Analytic()
	d := []float64{2.6, 2.8} // β_f = β_g = 1
	const n = 4000
	mc, err := VerifyMCContext(context.Background(), p, d, [][]float64{{1}, {1}}, n, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	betaF, betaG := 2*(d[0]-2.1), 2*(5.9-d[0]-d[1])
	want := stat.NormalCDF(betaF) * stat.NormalCDF(betaG)
	se := math.Sqrt(want * (1 - want) / n)
	if got := mc.Estimate.Yield(); math.Abs(got-want) > 4*se {
		t.Fatalf("MC yield %.4f, closed form Φ(%.2f)·Φ(%.2f) = %.4f (4 SE = %.4f)", got, betaF, betaG, want, 4*se)
	}
	if mc.Estimate.Total != n || mc.Evals != n {
		t.Fatalf("total %d, evals %d: want %d each (both specs share one corner)", mc.Estimate.Total, mc.Evals, n)
	}
}

// TestVerifyMCEvaluatesCornersBySubset spies on the subset evaluator:
// every sample makes one EvalSubset call per distinct corner, and each
// call wants exactly the specs mapped to that corner. The result equals
// the full-Eval fallback's on a problem whose subsets agree with Eval.
func TestVerifyMCEvaluatesCornersBySubset(t *testing.T) {
	// Spec i at θ is s0 + i + θ ≥ 0: reading a spec at the wrong corner
	// changes its count.
	perf := func(s, theta []float64, want []bool) []float64 {
		out := make([]float64, len(want))
		for i, w := range want {
			out[i] = math.NaN()
			if w {
				out[i] = s[0] + float64(i) + theta[0]
			}
		}
		return out
	}
	all := []bool{true, true, true}
	var mu sync.Mutex
	calls := map[string]int{}
	p := &problem.Problem{
		Specs:     []problem.Spec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Design:    []problem.Param{{Name: "d", Hi: 1}},
		StatNames: []string{"s0"},
		Eval: func(d, s, theta []float64) ([]float64, error) {
			t.Error("the full Eval ran beside a subset evaluator")
			return perf(s, theta, all), nil
		},
		EvalSubset: func(d, s, theta []float64, want []bool) ([]float64, error) {
			mu.Lock()
			calls[fmt.Sprint(theta, want)]++
			mu.Unlock()
			return perf(s, theta, want), nil
		},
	}
	thetas := [][]float64{{-1}, {0.5}, {-1}} // corners {a, c} and {b}
	const n = 300
	got, err := VerifyMC(p, []float64{0}, thetas, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantCalls := map[string]int{
		fmt.Sprint([]float64{-1}, []bool{true, false, true}):   n,
		fmt.Sprint([]float64{0.5}, []bool{false, true, false}): n,
	}
	if !reflect.DeepEqual(calls, wantCalls) {
		t.Errorf("EvalSubset calls by (θ, mask) = %v, want %v", calls, wantCalls)
	}
	if got.Evals != 2*n {
		t.Errorf("Evals = %d, want %d: one per (sample, corner)", got.Evals, 2*n)
	}

	p.EvalSubset = nil
	p.Eval = func(d, s, theta []float64) ([]float64, error) { return perf(s, theta, all), nil }
	ref, err := VerifyMC(p, []float64{0}, thetas, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != ref.Estimate || !reflect.DeepEqual(got.BadPerSpec, ref.BadPerSpec) ||
		!reflect.DeepEqual(got.Moments, ref.Moments) || got.Evals != ref.Evals {
		t.Errorf("subset result %+v, full-Eval result %+v: want equal", got, ref)
	}
}

// TestVerifyMCSubsetException pins the one documented difference
// between subset and full evaluation (problem.EvalSubsetFunc, and
// MCResult.BadPerSpec): a DC-only spec judged at a corner of its own
// stays finite where the full evaluation is NaN because its AC analysis
// failed. Here the AC analysis fails on every sample with s0 > 0.
func TestVerifyMCSubsetException(t *testing.T) {
	const dcSpec, acSpec = 0, 1
	sub := func(d, s, theta []float64, want []bool) ([]float64, error) {
		out := []float64{math.NaN(), math.NaN()}
		if want[acSpec] && s[0] > 0 {
			return out, nil // the AC solve failed: nothing is reported
		}
		if want[dcSpec] {
			out[dcSpec] = 1
		}
		if want[acSpec] {
			out[acSpec] = 1
		}
		return out, nil
	}
	p := &problem.Problem{
		Specs:     []problem.Spec{{Name: "power", Kind: problem.LE, Bound: 2}, {Name: "ft", Kind: problem.GE, Bound: 0}},
		Design:    []problem.Param{{Name: "d", Hi: 1}},
		StatNames: []string{"s0"},
		Eval: func(d, s, theta []float64) ([]float64, error) {
			return sub(d, s, theta, []bool{true, true})
		},
		EvalSubset: sub,
	}
	thetas := [][]float64{{0}, {1}} // each spec at a corner of its own
	const n = 400
	failAC := 0
	r := rng.New(5)
	for j := 0; j < n; j++ {
		if r.NormVector(make([]float64, 1))[0] > 0 {
			failAC++
		}
	}
	if failAC == 0 || failAC == n {
		t.Fatalf("%d of %d samples fail the AC analysis; the test needs both kinds", failAC, n)
	}

	got, err := VerifyMC(p, []float64{0}, thetas, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.BadPerSpec[dcSpec] != 0 || got.BadPerSpec[acSpec] != failAC || got.Moments[dcSpec].N != n {
		t.Errorf("subset: BadPerSpec %v, DC-spec moments over %d samples; want [0 %d] over %d",
			got.BadPerSpec, got.Moments[dcSpec].N, failAC, n)
	}
	p.EvalSubset = nil
	full, err := VerifyMC(p, []float64{0}, thetas, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	if full.BadPerSpec[dcSpec] != failAC || full.BadPerSpec[acSpec] != failAC {
		t.Errorf("full Eval: BadPerSpec %v, want [%d %d]", full.BadPerSpec, failAC, failAC)
	}
	if got.Estimate != full.Estimate {
		t.Errorf("yield: subset %+v, full %+v; want equal (the AC spec fails the same samples)", got.Estimate, full.Estimate)
	}
}
