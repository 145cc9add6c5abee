package core

import (
	"context"
	"math"
	"testing"

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
