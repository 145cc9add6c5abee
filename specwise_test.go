package specwise

import (
	"fmt"
	"strings"
	"testing"
)

func TestPublicProblemConstructors(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Problem
	}{
		{"folded-cascode", FoldedCascode()},
		{"miller", Miller()},
		{"ota5", OTA()},
	} {
		if err := tc.p.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.p.Name != tc.name {
			t.Errorf("name = %q want %q", tc.p.Name, tc.name)
		}
		// Every built-in problem must evaluate cleanly at its initial
		// design and nominal conditions.
		vals, err := tc.p.Eval(tc.p.InitialDesign(), make([]float64, tc.p.NumStat()), tc.p.NominalTheta())
		if err != nil {
			t.Fatalf("%s eval: %v", tc.name, err)
		}
		if len(vals) != tc.p.NumSpecs() {
			t.Errorf("%s: %d values for %d specs", tc.name, len(vals), tc.p.NumSpecs())
		}
	}
}

func TestOptimizeOTAPublicAPI(t *testing.T) {
	p := OTA()
	res, err := Optimize(p, Options{
		ModelSamples:  2000,
		VerifySamples: 100,
		MaxIterations: 1,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) < 2 {
		t.Fatalf("iterations = %d", len(res.Iterations))
	}
	first, last := res.Iterations[0], res.Iterations[len(res.Iterations)-1]
	if last.MCYield < first.MCYield {
		t.Errorf("yield fell: %v -> %v", first.MCYield, last.MCYield)
	}
}

func TestVerifyYieldPublicAPI(t *testing.T) {
	p := OTA()
	mc, err := VerifyYield(p, p.InitialDesign(), 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Estimate.Total != 60 {
		t.Errorf("total = %d", mc.Estimate.Total)
	}
	if y := mc.Estimate.Yield(); y < 0 || y > 1 {
		t.Errorf("yield = %v", y)
	}
	if len(mc.BadPerSpec) != p.NumSpecs() {
		t.Errorf("bad-per-spec length %d", len(mc.BadPerSpec))
	}
}

func TestAnalyzeMismatchPublicAPI(t *testing.T) {
	p := OTA()
	reports, err := AnalyzeMismatch(p, p.InitialDesign(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != p.NumSpecs() {
		t.Fatalf("reports = %d want %d", len(reports), p.NumSpecs())
	}
	for _, r := range reports {
		for i := 1; i < len(r.Pairs); i++ {
			if r.Pairs[i].Value > r.Pairs[i-1].Value {
				t.Errorf("spec %s: pairs not sorted", r.Spec)
			}
		}
		for _, pm := range r.Pairs {
			if pm.Value < 0 || pm.Value > 1 {
				t.Errorf("measure out of range: %v", pm.Value)
			}
			// Like-kind pairing only.
			kindK := pm.ParamK[strings.LastIndex(pm.ParamK, "."):]
			kindL := pm.ParamL[strings.LastIndex(pm.ParamL, "."):]
			if kindK != kindL {
				t.Errorf("mixed-kind pair %s/%s", pm.ParamK, pm.ParamL)
			}
		}
	}
	top := TopPairs(reports, 4)
	for i := 1; i < len(top); i++ {
		if top[i].Value > top[i-1].Value {
			t.Error("TopPairs not sorted")
		}
	}
}

// TopPairs keeps no pairs for n <= 0 instead of slicing out of range
// (mismatch -top -1 reaches it).
func TestTopPairsNonPositiveN(t *testing.T) {
	reports := []MismatchReport{{Spec: "f", Pairs: []PairMeasure{
		{ParamK: "M1.dVth", ParamL: "M2.dVth", Value: 0.5},
		{ParamK: "M1.dBeta", ParamL: "M2.dBeta", Value: 0.2},
	}}}
	for _, n := range []int{-1, 0} {
		if top := TopPairs(reports, n); len(top) != 0 {
			t.Errorf("TopPairs(n=%d) = %v, want no pairs", n, top)
		}
	}
	if top := TopPairs(reports, 1); len(top) != 1 || top[0].Value != 0.5 {
		t.Errorf("TopPairs(n=1) = %v, want the 0.5 pair", top)
	}
}

// TestLikeKindPairsExcludesGlobals checks the candidate pairs of the
// mismatch analysis on an analytic problem whose only failure direction
// is the M1/M2 threshold mismatch: the global parameter is never paired,
// kinds never mix, and two kinds of two members give exactly two pairs.
func TestLikeKindPairsExcludesGlobals(t *testing.T) {
	p := &Problem{
		Name:      "pairs",
		Specs:     []Spec{{Name: "f", Kind: GE, Bound: 0}},
		StatNames: []string{"g.dVthN", "M1.dVth", "M2.dVth", "M1.dBeta", "M2.dBeta"},
		Eval: func(d, s, th []float64) ([]float64, error) {
			return []float64{2 + s[1] - s[2]}, nil
		},
	}
	reports, err := AnalyzeMismatch(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	pairs := reports[0].Pairs
	if len(pairs) != 2 {
		t.Fatalf("pairs = %+v", pairs)
	}
	for _, pm := range pairs {
		if pm.ParamK == "g.dVthN" || pm.ParamL == "g.dVthN" {
			t.Errorf("global parameter paired: %+v", pm)
		}
	}
	if top := pairs[0]; top.ParamK != "M1.dVth" || top.ParamL != "M2.dVth" || top.Value <= 0 {
		t.Errorf("top pair = %+v, want M1.dVth/M2.dVth with a positive measure", top)
	}
}

func TestDescribeProblem(t *testing.T) {
	desc := DescribeProblem(OTA())
	for _, want := range []string{"ota5", "spec", "design", "theta", "CMRR"} {
		if !strings.Contains(desc, want) {
			t.Errorf("description missing %q:\n%s", want, desc)
		}
	}
}

func TestEstimateRareFailure(t *testing.T) {
	p := OTA()
	// At the initial design the Power spec is extremely robust: plain MC
	// sees zero failures, the IS estimate must resolve a tiny PFail.
	rf, err := EstimateRareFailure(p, p.InitialDesign(), "Power", 600, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Beta < 3 {
		t.Errorf("Power beta = %v; expected a robust spec", rf.Beta)
	}
	if rf.PFail < 0 || rf.PFail > 0.01 {
		t.Errorf("PFail = %v; expected a small probability", rf.PFail)
	}
	if rf.Evals == 0 {
		t.Error("no evaluations counted")
	}
	if _, err := EstimateRareFailure(p, p.InitialDesign(), "nope", 10, 1); err == nil {
		t.Error("unknown spec accepted")
	}
}

func TestAnalyzeCorners(t *testing.T) {
	p := OTA()
	corners, err := AnalyzeCorners(p, p.InitialDesign(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// OTA: 2 globals → 4 skews; 2 theta axes → 4 corners + nominal = 5.
	if len(corners) != 4*5 {
		t.Fatalf("corners = %d want 20", len(corners))
	}
	anyFail := false
	for _, c := range corners {
		if len(c.Values) != p.NumSpecs() {
			t.Fatalf("corner %s has %d values", c.Name, len(c.Values))
		}
		if c.WorstSpec == "" {
			t.Error("missing worst spec")
		}
		if !c.Pass {
			anyFail = true
		}
	}
	// The marginal initial OTA must fail somewhere at ±3σ skew corners.
	if !anyFail {
		t.Error("no corner failures at 3-sigma skew; initial OTA should be marginal")
	}
}

// TestBadInputsReturnErrors checks that the analyses refuse malformed
// input with an error instead of panicking: a negative sample count, a
// design vector of the wrong length, and a problem without specs.
func TestBadInputsReturnErrors(t *testing.T) {
	p := OTA()
	d := p.InitialDesign()
	short := d[:len(d)-1]
	long := append(append([]float64(nil), d...), 1)
	cases := map[string]func() error{
		"VerifyYield n<0": func() error { _, err := VerifyYield(p, d, -1, 1); return err },
		"EstimateRareFailure n<0": func() error {
			_, err := EstimateRareFailure(p, d, "Power", -1, 1)
			return err
		},
		"EstimateRareFailure n=0": func() error {
			_, err := EstimateRareFailure(p, d, "Power", 0, 1)
			return err
		},
		"AnalyzeCorners no specs": func() error {
			q := *p
			q.Specs = nil
			_, err := AnalyzeCorners(&q, d, 3)
			return err
		},
	}
	for _, dd := range [][]float64{nil, short, long} {
		n := len(dd)
		cases[fmt.Sprintf("VerifyYield len(d)=%d", n)] = func() error { _, err := VerifyYield(p, dd, 10, 1); return err }
		cases[fmt.Sprintf("AnalyzeMismatch len(d)=%d", n)] = func() error { _, err := AnalyzeMismatch(p, dd, 1); return err }
		cases[fmt.Sprintf("EstimateRareFailure len(d)=%d", n)] = func() error {
			_, err := EstimateRareFailure(p, dd, "Power", 10, 1)
			return err
		}
		cases[fmt.Sprintf("AnalyzeCorners len(d)=%d", n)] = func() error { _, err := AnalyzeCorners(p, dd, 3); return err }
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			if err := f(); err == nil {
				t.Error("accepted")
			}
		})
	}
}
