package circuits

import (
	"math"
	"math/cmplx"
	"testing"

	"specwise/internal/problem"
	"specwise/internal/spice"
)

// Dense-vs-sparse backend agreement on the real testbenches: the DC
// operating point and the AC response of every benchmark circuit must
// match component-wise to tight relative tolerance regardless of the
// selected linear-solver backend.

const solverAgreeTol = 1e-9

func relDiff(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1e-12 {
		scale = 1
	}
	return math.Abs(a-b) / scale
}

func crelDiff(a, b complex128) float64 {
	scale := math.Max(cmplx.Abs(a), cmplx.Abs(b))
	if scale < 1e-12 {
		scale = 1
	}
	return cmplx.Abs(a-b) / scale
}

// checkSolverAgreement builds the problem's testbench twice at the
// initial design and nominal point — once per backend — and compares the
// full DC solution and the AC output response at several frequencies.
func checkSolverAgreement(t *testing.T, name string, mkProblem func() (*problem.Problem, *simHarness)) {
	t.Helper()
	p, h := mkProblem()
	mk := func(kind spice.SolverKind) (*testbench, *spice.DCResult) {
		tb := h.build()
		h.set(tb, p.InitialDesign(), h.s0, h.theta0)
		tb.ckt.Opts.Solver = kind
		dc, err := tb.ckt.DC(spice.DCOptions{})
		if err != nil {
			t.Fatalf("%s/%v: DC failed: %v", name, kind, err)
		}
		return tb, dc
	}
	tbD, dcD := mk(spice.SolverDense)
	tbS, dcS := mk(spice.SolverSparse)

	if len(dcD.X) != len(dcS.X) {
		t.Fatalf("%s: MNA order mismatch %d vs %d", name, len(dcD.X), len(dcS.X))
	}
	for i := range dcD.X {
		if d := relDiff(dcD.X[i], dcS.X[i]); d > solverAgreeTol {
			t.Errorf("%s: DC %s differs: dense %.15g sparse %.15g (rel %.3g)",
				name, tbD.ckt.VarName(i), dcD.X[i], dcS.X[i], d)
		}
	}

	// Open-loop AC response at a few spot frequencies.
	for _, tb := range []*testbench{tbD, tbS} {
		tb.drive.AC = 1
		tb.fb.ACMode = spice.VCVSACFixed
		tb.fb.ACValue = 0
	}
	for _, f := range []float64{1e3, 1e5, 1e7, 1e9} {
		omega := 2 * math.Pi * f
		acD, err := tbD.ckt.AC(dcD, omega)
		if err != nil {
			t.Fatalf("%s dense AC at %g Hz: %v", name, f, err)
		}
		acS, err := tbS.ckt.AC(dcS, omega)
		if err != nil {
			t.Fatalf("%s sparse AC at %g Hz: %v", name, f, err)
		}
		for i := range acD.X {
			if d := crelDiff(acD.X[i], acS.X[i]); d > solverAgreeTol {
				t.Errorf("%s: AC %s at %g Hz differs: dense %v sparse %v (rel %.3g)",
					name, tbD.ckt.VarName(i), f, acD.X[i], acS.X[i], d)
			}
		}
	}

	// The derived performances must agree too (coarser: they stack
	// interpolations on top of the raw solves).
	pD, okD := tbD.evaluate(100, 1e9, measureFull)
	pS, okS := tbS.evaluate(100, 1e9, measureFull)
	if okD != okS {
		t.Fatalf("%s: evaluate ok mismatch: dense %v sparse %v", name, okD, okS)
	}
	pairs := [][2]float64{
		{pD.A0dB, pS.A0dB}, {pD.FtMHz, pS.FtMHz}, {pD.PMdeg, pS.PMdeg},
		{pD.CMRRdB, pS.CMRRdB}, {pD.SRVus, pS.SRVus}, {pD.PowerMW, pS.PowerMW},
	}
	for k, pr := range pairs {
		if d := relDiff(pr[0], pr[1]); d > 1e-6 {
			t.Errorf("%s: performance %d differs: dense %g sparse %g", name, k, pr[0], pr[1])
		}
	}
}

func TestSolverAgreementOTA(t *testing.T) {
	checkSolverAgreement(t, "ota5", otaProblem)
}

func TestSolverAgreementMiller(t *testing.T) {
	checkSolverAgreement(t, "miller", millerProblem)
}

func TestSolverAgreementFoldedCascode(t *testing.T) {
	checkSolverAgreement(t, "folded-cascode", foldedCascodeProblem)
}

// TestSolverStatsFlow checks that solver effort counters reach the
// problem layer with the sparse backend selected.
func TestSolverStatsFlow(t *testing.T) {
	p := OTAProblem()
	if _, err := p.Eval(p.InitialDesign(), make([]float64, p.NumStat()), p.NominalTheta()); err != nil {
		t.Fatalf("eval: %v", err)
	}
	c := p.SimStats()
	if c.Solver != "sparse" {
		t.Fatalf("SimCounters.Solver = %q, want sparse", c.Solver)
	}
	if c.Factorizations == 0 || c.Solves == 0 || c.SymbolicFacts == 0 {
		t.Fatalf("solver counters did not accumulate: %+v", c)
	}
	if c.MatrixNNZ == 0 || c.FactorNNZ < c.MatrixNNZ {
		t.Fatalf("NNZ gauges implausible: %+v", c)
	}
	// The whole point of the symbolic/numeric split: symbolic analyses
	// must be rare next to numeric factorizations.
	if c.SymbolicFacts*10 > c.Factorizations {
		t.Fatalf("symbolic factorizations not amortized: %d symbolic vs %d numeric",
			c.SymbolicFacts, c.Factorizations)
	}
}
