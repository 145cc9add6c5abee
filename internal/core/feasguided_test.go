package core_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"specwise/internal/core"
	"specwise/internal/problem"
	"specwise/internal/testprob"
)

func TestOptimizerAnalyticImprovesYield(t *testing.T) {
	p := testprob.Analytic()
	res, err := core.Optimize(context.Background(), p, core.Options{
		ModelSamples:  4000,
		VerifySamples: 400,
		MaxIterations: 2,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "feasguided" {
		t.Errorf("result algorithm = %q, want feasguided", res.Algorithm)
	}
	if len(res.Iterations) < 2 {
		t.Fatalf("expected at least 2 iteration records, got %d", len(res.Iterations))
	}
	initial := res.Iterations[0]
	final := res.Iterations[len(res.Iterations)-1]
	// Initial design d0=0 violates spec f at the nominal: yield ~0.
	if initial.MCYield > 0.05 {
		t.Errorf("initial MC yield = %v want ~0", initial.MCYield)
	}
	if final.MCYield < 0.95 {
		t.Errorf("final MC yield = %v want ~1", final.MCYield)
	}
	// The final design must respect the true constraint.
	d := res.FinalDesign
	if d[0]+d[1] > 8+1e-6 {
		t.Errorf("final design %v violates constraint", d)
	}
	if res.Simulations == 0 || res.ConstraintSims == 0 {
		t.Error("simulation counters not incremented")
	}
}

func TestOptimizerInfeasibleStartRecovers(t *testing.T) {
	p := testprob.Analytic()
	p.Design[0].Init = 9
	p.Design[1].Init = 9 // violates 8 − d0 − d1 >= 0 badly
	res, err := core.Optimize(context.Background(), p, core.Options{
		ModelSamples:  2000,
		VerifySamples: 200,
		MaxIterations: 1,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Iterations[0].Design
	if d[0]+d[1] > 8+0.05 {
		t.Errorf("feasible start failed: d=%v", d)
	}
}

func TestOptimizerNoConstraintsAblation(t *testing.T) {
	p := testprob.Analytic()
	res, err := core.Optimize(context.Background(), p, core.Options{
		ModelSamples:  2000,
		VerifySamples: 100,
		MaxIterations: 1,
		NoConstraints: true,
		Seed:          13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Without constraints the run must not spend constraint simulations.
	if res.ConstraintSims != 0 {
		t.Errorf("constraint sims = %d want 0", res.ConstraintSims)
	}
}

func TestOptimizerNominalLinearizationAblation(t *testing.T) {
	// A quadratic spec whose nominal gradient vanishes: the nominal-point
	// model must be blind (zero statistical gradient), while the
	// worst-case model sees the danger.
	resNom, err := core.Optimize(context.Background(), testprob.Quad(), core.Options{
		ModelSamples: 3000, MaxIterations: 0, SkipVerify: true,
		LinearizeAtNominal: true, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	resWC, err := core.Optimize(context.Background(), testprob.Quad(), core.Options{
		ModelSamples: 3000, MaxIterations: 0, SkipVerify: true, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	// True yield: P(d0 >= 0.25 (s0-s1)²) with s0−s1 ~ N(0,2):
	// P((s0−s1)² <= 4·d0) = P(|z| <= sqrt(2·d0)) ≈ 0.843 at d0=1.
	nomBad := resNom.Iterations[0].Specs[0].BadPerMille
	wcBad := resWC.Iterations[0].Specs[0].BadPerMille
	if nomBad > 10 {
		t.Errorf("nominal-point model sees %v‰ bad samples; it should be nearly blind", nomBad)
	}
	if wcBad < 100 || wcBad > 250 {
		t.Errorf("worst-case model bad samples = %v‰ want ≈157‰", wcBad)
	}
	// The worst-case run must have added a mirror model for the
	// symmetric quadratic.
	foundMirror := false
	for _, m := range resWC.Iterations[0].Models {
		if m.Mirror {
			foundMirror = true
		}
	}
	if !foundMirror {
		t.Error("no mirror model added for the symmetric quadratic spec")
	}
}

func TestOptimizerRecordsBeta(t *testing.T) {
	p := testprob.Analytic()
	res, err := core.Optimize(context.Background(), p, core.Options{
		ModelSamples: 1000, MaxIterations: 0, SkipVerify: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Iterations[0].Specs
	// Spec f at d0=0 and θ_wc=+1: margin −2.1, sensitivity 0.5 ⇒ β = −4.2.
	if math.Abs(st[0].Beta+4.2) > 0.05 {
		t.Errorf("spec f beta = %v want −4.2", st[0].Beta)
	}
	// Spec g at d=0: margin ≈ 5.9, sensitivity 0.5 ⇒ β ≈ +11.8,
	// clamped at the default search radius (6).
	if st[1].Beta < 5.5 {
		t.Errorf("spec g beta = %v want large positive", st[1].Beta)
	}
}

// The whole optimizer must be bit-deterministic for a fixed seed,
// including the parallel Monte-Carlo verification.
func TestOptimizerDeterminism(t *testing.T) {
	run := func() *core.Result {
		p := testprob.Analytic()
		res, err := core.Optimize(context.Background(), p, core.Options{
			ModelSamples: 2000, VerifySamples: 300, MaxIterations: 2, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
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

// A deceptive concave problem: the linear model predicts unbounded gains
// from d0, the truth peaks at d0 = 2.5 and collapses beyond. The trust
// region must shrink after the first rejected step and the run must still
// end near the optimum.
func TestOptimizerTrustShrinkOnDeceptiveProblem(t *testing.T) {
	p := &problem.Problem{
		Name:  "deceptive",
		Specs: []problem.Spec{{Name: "m", Kind: problem.GE, Bound: 0}},
		Design: []problem.Param{
			{Name: "d0", Init: 0, Lo: -1, Hi: 10},
		},
		StatNames: []string{"s0"},
		Eval: func(d, s, th []float64) ([]float64, error) {
			x := d[0]
			return []float64{-1 + x - 0.2*x*x + 0.5*s[0]}, nil
		},
	}
	var log bytes.Buffer
	res, err := core.Optimize(context.Background(), p, core.Options{
		ModelSamples:  3000,
		VerifySamples: 400,
		MaxIterations: 4,
		Seed:          21,
		Log:           &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := res.Iterations[len(res.Iterations)-1].MCYield
	// True optimum: margin peaks at x = 2.5 with value 0.25 → β = 0.5 →
	// yield ≈ 69%. The run must get reasonably close despite the
	// deceptive model.
	if final < 0.5 {
		t.Errorf("final yield = %v want >= 0.5", final)
	}
	if d0 := res.FinalDesign[0]; d0 < 1 || d0 > 4.5 {
		t.Errorf("final d0 = %v want near the true optimum 2.5", d0)
	}
}

func TestOptimizerNoMirrorOption(t *testing.T) {
	res, err := core.Optimize(context.Background(), testprob.Quad(), core.Options{
		ModelSamples: 2000, MaxIterations: 0, SkipVerify: true,
		NoMirrorSpecs: true, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Iterations[0].Models {
		if m.Mirror {
			t.Error("mirror model built despite NoMirrorSpecs")
		}
	}
	if res.Iterations[0].MCYield != -1 {
		t.Error("SkipVerify must leave MCYield at -1")
	}
}

func TestOptimizerLHSOption(t *testing.T) {
	p := testprob.Analytic()
	res, err := core.Optimize(context.Background(), p, core.Options{
		ModelSamples: 2000, MaxIterations: 1, SkipVerify: true,
		LHS: true, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Iterations[len(res.Iterations)-1]
	if last.ModelYield < 0.9 {
		t.Errorf("LHS run model yield = %v", last.ModelYield)
	}
}

// With RefineThetaPasses on, a spec whose worst operating point sits
// inside the range is judged at the refined point (a corner-only run
// would overestimate the margin).
func TestOptimizerRefineTheta(t *testing.T) {
	p := &problem.Problem{
		Name:  "interior-theta",
		Specs: []problem.Spec{{Name: "pm", Kind: problem.GE, Bound: 0}},
		Design: []problem.Param{
			{Name: "d0", Init: 0, Lo: -1, Hi: 1},
		},
		StatNames: []string{"s0"},
		Theta:     []problem.OpRange{{Name: "t", Nominal: 0, Lo: -1, Hi: 1}},
		Eval: func(d, s, th []float64) ([]float64, error) {
			x := th[0] - 0.6
			return []float64{2*x*x - 0.5 + d[0] + 0.1*s[0]}, nil
		},
	}
	run := func(passes int) float64 {
		res, err := core.Optimize(context.Background(), p, core.Options{
			ModelSamples: 500, MaxIterations: 0, SkipVerify: true,
			Seed: 9, RefineThetaPasses: passes,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Iterations[0].Specs[0].NominalMargin
	}
	corners := run(0)
	refined := run(2)
	if refined >= corners {
		t.Errorf("refined margin %v must be below corner margin %v", refined, corners)
	}
	if math.Abs(refined+0.5) > 0.02 {
		t.Errorf("refined margin = %v want -0.5", refined)
	}
}

func TestRunContextCancelStopsRun(t *testing.T) {
	p := testprob.Analytic()
	slow := *p
	slow.Eval = func(d, s, th []float64) ([]float64, error) {
		time.Sleep(100 * time.Microsecond)
		return p.Eval(d, s, th)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := core.Optimize(ctx, &slow, core.Options{
			ModelSamples: 500, VerifySamples: 20000, MaxIterations: 8, Seed: 3,
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the run get in flight
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("cancellation latency %v", took)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Optimize did not return after cancellation")
	}
}

func TestProgressHookReportsIterations(t *testing.T) {
	p := testprob.Analytic()
	var events []core.ProgressEvent
	res, err := core.Optimize(context.Background(), p, core.Options{
		ModelSamples: 1000, VerifySamples: 100, MaxIterations: 2, Seed: 7,
		Progress: func(e core.ProgressEvent) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	if events[0].Stage != "initial" || events[0].Iteration != 0 {
		t.Errorf("first event = %+v, want initial/0", events[0])
	}
	accepted := 0
	for _, e := range events {
		switch e.Stage {
		case "initial", "accepted", "rejected":
		default:
			t.Errorf("unknown stage %q", e.Stage)
		}
		if e.Stage == "accepted" {
			accepted++
		}
		if len(e.Design) != p.NumDesign() {
			t.Errorf("event design has %d entries, want %d", len(e.Design), p.NumDesign())
		}
	}
	// Every accepted event corresponds to one recorded iteration beyond
	// the initial state.
	if accepted != len(res.Iterations)-1 {
		t.Errorf("%d accepted events, %d recorded iterations", accepted, len(res.Iterations))
	}
	last := events[len(events)-1]
	if last.MCYield < 0 {
		t.Error("verification was on; last event must carry an MC yield")
	}
}
