package circuits

import (
	"context"
	"os"
	"testing"

	"specwise/internal/core"
	"specwise/internal/report"
)

// TestEndToEndOTA runs the full Fig.-6 flow on the small OTA; it must lift
// the Monte-Carlo yield substantially. This is the fast integration test
// of the whole stack (simulator → worst case → models → search).
func TestEndToEndOTA(t *testing.T) {
	p := OTAProblem()
	res, err := core.Optimize(context.Background(), p, core.Options{
		ModelSamples:  3000,
		VerifySamples: 120,
		MaxIterations: 2,
		Seed:          42,
	})
	if err != nil {
		t.Fatal(err)
	}
	initial := res.Iterations[0].MCYield
	final := res.Iterations[len(res.Iterations)-1].MCYield
	t.Logf("OTA yield: %.3f -> %.3f (%d sims, %d constraint sims)",
		initial, final, res.Simulations, res.ConstraintSims)
	if final < initial {
		t.Errorf("optimization degraded yield: %v -> %v", initial, final)
	}
	if final < 0.9 {
		t.Errorf("final OTA yield = %v want >= 0.9", final)
	}
	report.OptimizationTrace(os.Stderr, res)
}

// TestEndToEndFoldedCascode is the Table-1 shaped run; it is slow, so it
// hides behind -short.
func TestEndToEndFoldedCascode(t *testing.T) {
	if testing.Short() {
		t.Skip("slow end-to-end run")
	}
	p := FoldedCascodeProblem()
	res, err := core.Optimize(context.Background(), p, core.Options{
		ModelSamples:  4000,
		VerifySamples: 200,
		MaxIterations: 4,
		Seed:          42,
		Log:           os.Stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	report.OptimizationTrace(os.Stderr, res)
	initial := res.Iterations[0].MCYield
	final := res.Iterations[len(res.Iterations)-1].MCYield
	t.Logf("folded-cascode yield: %.3f -> %.3f", initial, final)
	if initial > 0.05 {
		t.Errorf("initial yield = %v want ≈ 0 (the paper's Table-1 setup)", initial)
	}
	if final < 0.9 {
		t.Errorf("final yield = %v want >= 0.9", final)
	}
}

// TestEndToEndMiller is the Table-6 shaped run: global variations only,
// starting from partial yield.
func TestEndToEndMiller(t *testing.T) {
	if testing.Short() {
		t.Skip("slow end-to-end run")
	}
	p := MillerProblem()
	res, err := core.Optimize(context.Background(), p, core.Options{
		ModelSamples:  4000,
		VerifySamples: 200,
		MaxIterations: 3,
		Seed:          42,
		Log:           os.Stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	report.OptimizationTrace(os.Stderr, res)
	initial := res.Iterations[0].MCYield
	final := res.Iterations[len(res.Iterations)-1].MCYield
	t.Logf("miller yield: %.3f -> %.3f", initial, final)
	if initial < 0.05 || initial > 0.7 {
		t.Errorf("initial yield = %v want partial (Table-6 shape)", initial)
	}
	if final < 0.9 {
		t.Errorf("final yield = %v want >= 0.9", final)
	}
}

// TestEndToEndAblations reproduces the Table-3/4 story on the
// folded-cascode: without functional constraints, and with nominal-point
// linearization, the true yield stays (near) zero even though the model's
// bad-sample counts fall.
func TestEndToEndAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("slow end-to-end run")
	}
	for _, tc := range []struct {
		name    string
		opts    core.Options
		iters   int
		ceiling float64
	}{
		// Without functional constraints the first step breaks the
		// circuit outright: yield stays at zero (Table 3).
		{"no-constraints", core.Options{NoConstraints: true}, 1, 0.05},
		// With nominal-point linearization the models are blind to the
		// quadratic mismatch behaviour of CMRR, so the run saturates well
		// below the full method's ≈97% (Table 4).
		{"nominal-linearization", core.Options{LinearizeAtNominal: true}, 4, 0.9},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := FoldedCascodeProblem()
			o := tc.opts
			o.ModelSamples = 3000
			o.VerifySamples = 150
			o.MaxIterations = tc.iters
			o.Seed = 42
			res, err := core.Optimize(context.Background(), p, o)
			if err != nil {
				t.Fatal(err)
			}
			report.OptimizationTrace(os.Stderr, res)
			final := res.Iterations[len(res.Iterations)-1].MCYield
			t.Logf("%s: final yield after %d iterations = %.3f", tc.name, tc.iters, final)
			if final > tc.ceiling {
				t.Errorf("%s ablation reached %.3f yield (ceiling %.2f); the paper's point is that it underperforms",
					tc.name, final, tc.ceiling)
			}
		})
	}
}
