package spice

import (
	"errors"
	"math"
	"strings"
	"testing"

	"specwise/internal/linalg"
)

// buildTestAmp builds a small MOSFET amplifier stage with a supply,
// bias divider, load and coupling capacitor — enough device variety to
// exercise every stamp path including the MOSFET source/drain swap.
func buildTestAmp(kind SolverKind) *Circuit {
	c := New()
	c.Opts.Solver = kind
	vdd := c.Node("vdd")
	in := c.Node("in")
	g := c.Node("g")
	out := c.Node("out")
	gnd := c.Node(Ground)
	c.Add(NewVSource("VDD", vdd, gnd, 3.3, 0))
	c.Add(NewVSource("VIN", in, gnd, 1.2, 1))
	c.Add(NewResistor("RB", in, g, 10e3))
	c.Add(NewResistor("RB2", g, gnd, 500e3))
	c.Add(NewResistor("RL", vdd, out, 20e3))
	c.Add(NewMosfet("M1", out, g, gnd, gnd, +1, 20e-6, 1e-6, DefaultNMOS()))
	c.Add(NewCapacitor("CL", out, gnd, 1e-12))
	return c
}

func TestDCAgreementDenseSparse(t *testing.T) {
	cd := buildTestAmp(SolverDense)
	cs := buildTestAmp(SolverSparse)
	dcD, err := cd.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dcS, err := cs.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dcD.X {
		scale := math.Max(math.Abs(dcD.X[i]), 1)
		if math.Abs(dcD.X[i]-dcS.X[i])/scale > 1e-9 {
			t.Errorf("DC %s: dense %.15g sparse %.15g", cd.VarName(i), dcD.X[i], dcS.X[i])
		}
	}
}

func TestACAgreementDenseSparse(t *testing.T) {
	cd := buildTestAmp(SolverDense)
	cs := buildTestAmp(SolverSparse)
	dcD, _ := cd.DC(DCOptions{})
	dcS, _ := cs.DC(DCOptions{})
	for _, f := range []float64{1, 1e4, 1e8} {
		omega := 2 * math.Pi * f
		acD, err := cd.AC(dcD, omega)
		if err != nil {
			t.Fatal(err)
		}
		acS, err := cs.AC(dcS, omega)
		if err != nil {
			t.Fatal(err)
		}
		for i := range acD.X {
			d := acD.X[i] - acS.X[i]
			mag := math.Hypot(real(d), imag(d))
			scale := math.Max(math.Hypot(real(acD.X[i]), imag(acD.X[i])), 1)
			if mag/scale > 1e-9 {
				t.Errorf("AC %s at %g Hz: dense %v sparse %v", cd.VarName(i), f, acD.X[i], acS.X[i])
			}
		}
	}
}

// TestTranAgreementDenseSparse runs a step-response transient under both
// backends. The capacitor companion stamps add matrix positions the DC
// assembly never produced, so this also exercises the sparse backend's
// structure-growth path.
func TestTranAgreementDenseSparse(t *testing.T) {
	build := func(kind SolverKind) (*Circuit, int) {
		c := New()
		c.Opts.Solver = kind
		in := c.Node("in")
		out := c.Node("out")
		gnd := c.Node(Ground)
		c.Add(NewPulseSource("VP", in, gnd, 0, 1, 1e-9, 1e-9))
		c.Add(NewResistor("R1", in, out, 1e3))
		c.Add(NewCapacitor("C1", out, gnd, 1e-12))
		return c, out
	}
	cd, outD := build(SolverDense)
	cs, outS := build(SolverSparse)
	opts := TranOptions{Stop: 10e-9, Step: 0.1e-9}
	trD, err := cd.Tran(opts)
	if err != nil {
		t.Fatal(err)
	}
	trS, err := cs.Tran(opts)
	if err != nil {
		t.Fatal(err)
	}
	vD, vS := trD.Voltage(outD), trS.Voltage(outS)
	for k := range vD {
		if math.Abs(vD[k]-vS[k]) > 1e-9 {
			t.Errorf("tran sample %d: dense %.12g sparse %.12g", k, vD[k], vS[k])
		}
	}
	// The RC charge must actually have happened.
	if vS[len(vS)-1] < 0.9 {
		t.Fatalf("output never charged: %v", vS[len(vS)-1])
	}
}

// TestSparseDeterminism runs the same DC solve twice on fresh circuits
// and once warm on a reused circuit; all must produce bit-identical
// solutions (refactorization replays the identical arithmetic).
func TestSparseDeterminism(t *testing.T) {
	solve := func() linalg.Vector {
		c := buildTestAmp(SolverSparse)
		dc, err := c.DC(DCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return dc.X
	}
	x1, x2 := solve(), solve()
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("fresh-circuit solves differ at %d: %x vs %x", i, x1[i], x2[i])
		}
	}
	c := buildTestAmp(SolverSparse)
	d1, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.DC(DCOptions{InitialX: d1.X})
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.X {
		if math.Abs(d1.X[i]-d2.X[i]) > 1e-9 {
			t.Fatalf("warm resolve drifted at %s: %g vs %g", c.VarName(i), d1.X[i], d2.X[i])
		}
	}
}

// TestACSweepMatchesDirect pins the affine fast path in ACSweep (stamp
// at ω=0 and ω=1, interpolate values per point) against the reference
// per-point assembly through Circuit.AC, for both backends. A device
// whose AC stamp were not affine in ω would break this agreement.
func TestACSweepMatchesDirect(t *testing.T) {
	for _, kind := range []SolverKind{SolverDense, SolverSparse} {
		c := buildTestAmp(kind)
		dc, err := c.DC(DCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out := c.Node("out")
		bode, err := c.ACSweep(dc, out, 10, 1e9, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range bode.Freq {
			r, err := c.AC(dc, 2*math.Pi*f)
			if err != nil {
				t.Fatal(err)
			}
			want := r.Voltage(out)
			d := bode.H[i] - want
			mag := math.Hypot(real(d), imag(d))
			scale := math.Max(math.Hypot(real(want), imag(want)), 1e-12)
			if mag/scale > 1e-9 {
				t.Errorf("%v: sweep H(%g Hz) = %v, direct %v", kind, f, bode.H[i], want)
			}
		}
	}
}

// TestSingularDiagnosticsNameVariable forces a singular MNA system (two
// ideal voltage sources in parallel) and checks the failure names the
// offending variable.
func TestSingularDiagnosticsNameVariable(t *testing.T) {
	for _, kind := range []SolverKind{SolverDense, SolverSparse} {
		c := New()
		c.Opts.Solver = kind
		a := c.Node("a")
		gnd := c.Node(Ground)
		c.Add(NewVSource("V1", a, gnd, 1, 0))
		c.Add(NewVSource("V2", a, gnd, 2, 0))
		c.Add(NewResistor("R1", a, gnd, 1e3))
		_, err := c.DC(DCOptions{})
		if err == nil {
			t.Fatalf("%v: parallel voltage sources should not converge", kind)
		}
		if !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("%v: err = %v, want ErrNoConvergence", kind, err)
		}
		if !strings.Contains(err.Error(), "MNA variable") || !strings.Contains(err.Error(), "I(V") {
			t.Fatalf("%v: error does not name the singular branch: %v", kind, err)
		}
	}
}

// TestSolverKindSelection checks backend resolution: an explicit dense
// circuit runs dense, and the zero value runs sparse.
func TestSolverKindSelection(t *testing.T) {
	stats := &SolverStats{}
	c := buildTestAmp(SolverDense)
	c.SolverStats = stats
	if _, err := c.DC(DCOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := stats.Kind(); got != "dense" {
		t.Fatalf("explicit dense circuit reported kind %q", got)
	}
	stats2 := &SolverStats{}
	if got := stats2.Kind(); got != "" {
		t.Fatalf("stats before any analysis reported kind %q, want none", got)
	}
	var zero SolverKind
	c2 := buildTestAmp(zero)
	c2.SolverStats = stats2
	if _, err := c2.DC(DCOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := stats2.Kind(); got != "sparse" {
		t.Fatalf("zero-value solver circuit reported kind %q, want sparse", got)
	}
	if stats2.Factorizations.Load() == 0 || stats2.Solves.Load() == 0 {
		t.Fatalf("solver stats did not flush: %d/%d",
			stats2.Factorizations.Load(), stats2.Solves.Load())
	}
	if nnz, fill := stats2.MatrixNNZ.Load(), stats2.FactorNNZ.Load(); nnz == 0 || fill < nnz {
		t.Fatalf("NNZ gauges implausible: nnz=%d fill=%d", nnz, fill)
	}
}
