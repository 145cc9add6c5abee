package core_test

import (
	"context"
	"testing"

	"specwise/internal/core"
	"specwise/internal/testprob"
)

func runCEM(t *testing.T, opts core.Options) *core.Result {
	t.Helper()
	opts.Algorithm = "cem"
	res, err := core.Optimize(context.Background(), testprob.Analytic(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The analytic problem starts at yield ~0 (spec f violated at the
// nominal); the sampler must find its way to a high-yield region and
// respect the true constraint.
func TestCEMAnalyticImprovesYield(t *testing.T) {
	res := runCEM(t, core.Options{
		ModelSamples:  2000,
		VerifySamples: 300,
		MaxIterations: 3,
		Seed:          7,
	})
	if res.Algorithm != "cem" {
		t.Errorf("result algorithm = %q, want cem", res.Algorithm)
	}
	if len(res.Iterations) < 2 {
		t.Fatalf("expected initial + final iteration records, got %d", len(res.Iterations))
	}
	initial := res.Iterations[0]
	final := res.Iterations[len(res.Iterations)-1]
	if initial.MCYield > 0.05 {
		t.Errorf("initial MC yield = %v want ~0", initial.MCYield)
	}
	if final.MCYield < 0.9 {
		t.Errorf("final MC yield = %v want ~1", final.MCYield)
	}
	d := res.FinalDesign
	if d[0]+d[1] > 8+1e-6 {
		t.Errorf("final design %v violates constraint", d)
	}
	if res.Simulations == 0 || res.ConstraintSims == 0 {
		t.Error("simulation counters not incremented")
	}
}

// Fixed seed ⇒ bit-identical runs, like every backend.
func TestCEMDeterminism(t *testing.T) {
	opts := core.Options{
		ModelSamples: 1000, VerifySamples: 100, MaxIterations: 2, Seed: 42,
	}
	a, b := runCEM(t, opts), runCEM(t, opts)
	if len(a.Iterations) != len(b.Iterations) {
		t.Fatalf("iteration counts differ: %d vs %d", len(a.Iterations), len(b.Iterations))
	}
	for i := range a.Iterations {
		if a.Iterations[i].MCYield != b.Iterations[i].MCYield {
			t.Errorf("iteration %d MC yield differs: %v vs %v",
				i, a.Iterations[i].MCYield, b.Iterations[i].MCYield)
		}
	}
	for k := range a.FinalDesign {
		if a.FinalDesign[k] != b.FinalDesign[k] {
			t.Errorf("final design differs at %d: %v vs %v", k, a.FinalDesign[k], b.FinalDesign[k])
		}
	}
	if a.Simulations != b.Simulations {
		t.Errorf("simulation counts differ: %d vs %d", a.Simulations, b.Simulations)
	}
}

// Different seeds must drive different sampling trajectories (the
// backend actually uses its stream, rather than collapsing to a fixed
// path).
func TestCEMSeedVariesTrajectory(t *testing.T) {
	a := runCEM(t, core.Options{ModelSamples: 1000, MaxIterations: 2, SkipVerify: true, Seed: 1})
	b := runCEM(t, core.Options{ModelSamples: 1000, MaxIterations: 2, SkipVerify: true, Seed: 2})
	same := true
	for k := range a.FinalDesign {
		if a.FinalDesign[k] != b.FinalDesign[k] {
			same = false
		}
	}
	if same {
		t.Error("two seeds produced identical final designs; sampler looks seed-blind")
	}
}

// SkipVerify must hold for the backend's recorded states too.
func TestCEMSkipVerify(t *testing.T) {
	res := runCEM(t, core.Options{ModelSamples: 1000, MaxIterations: 1, SkipVerify: true, Seed: 5})
	for i, it := range res.Iterations {
		if it.MCYield != -1 {
			t.Errorf("iteration %d MCYield = %v, want -1 under SkipVerify", i, it.MCYield)
		}
	}
}
