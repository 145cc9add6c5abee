package circuits

import (
	"context"
	"os"
	"testing"

	"specwise/internal/core"
	"specwise/internal/report"
)

// TestEndToEndFoldedCascodeQuadratic runs the Table-1 experiment with the
// radial-quadratic extension: tighter CMRR models should match or beat
// the paper-faithful run's endpoint.
func TestEndToEndFoldedCascodeQuadratic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow end-to-end run")
	}
	p := FoldedCascodeProblem()
	res, err := core.Optimize(context.Background(), p, core.Options{
		ModelSamples:   10000,
		VerifySamples:  300,
		MaxIterations:  4,
		Seed:           20010618,
		QuadraticSpecs: true,
		Log:            os.Stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	report.OptimizationTrace(os.Stderr, res)
	final := res.Iterations[len(res.Iterations)-1].MCYield
	t.Logf("quadratic-spec run: %.3f final yield", final)
	if final < 0.9 {
		t.Errorf("final yield = %v", final)
	}
}
