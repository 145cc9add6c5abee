package yieldspec

import (
	"math"
	"strings"
	"testing"
)

// fcNetlist is the folded-cascode opamp of internal/circuits expressed as
// a plain netlist. The bias rails track the supply through VCVS+offset
// pairs (v(vbt) = v(vdd) − 1.1 etc.), reproducing the native builder's
// supply-referenced biasing.
const fcNetlist = `folded-cascode opamp, netlist port of internal/circuits
.model nch NMOS VT0=0.71 KP=120u LAMBDA=0.06 TCV=1.5m BEX=-1.5
.model pch PMOS VT0=0.78 KP=40u LAMBDA=0.08 TCV=1.7m BEX=-1.5
VDD vdd 0 3.3
VINP inp 0 1.65
EFB inn 0 out 0 1
* supply-tracking bias rails
EBT vbtx 0 vdd 0 1
VBT vbt vbtx -1.1
VBN1 vbn1 0 1.0
VBN2 vbn2 0 1.6
EBP vbpx 0 vdd 0 1
VBP vbp vbpx -1.7
* core
MT tail vbt vdd vdd pch W=100u L=2u
M1 f1 inp tail vdd pch W=30u L=1u
M2 f2 inn tail vdd pch W=30u L=1u
M3 f1 vbn1 0 0 nch W=60u L=2u
M4 f2 vbn1 0 0 nch W=60u L=2u
M5 o1 vbn2 f1 0 nch W=50u L=1u
M6 out vbn2 f2 0 nch W=50u L=1u
M7 m1 o1 vdd vdd pch W=100u L=2u
M8 m2 o1 vdd vdd pch W=100u L=2u
M9 o1 vbp m1 vdd pch W=100u L=1u
M10 out vbp m2 vdd pch W=100u L=1u
CL out 0 2p
.end
`

// fcSpec wires the same design parameters, statistics and specs as
// circuits.FoldedCascodeProblem. The input common mode is fixed at the
// nominal 1.65 V (the native builder tracks VDD/2; over the ±0.3 V VDD
// range the difference is immaterial for this validation).
func fcSpec() string {
	var b strings.Builder
	b.WriteString(`{
  "name": "fc-netlist",
  "netlist": `)
	b.WriteString(jsonString(fcNetlist))
	b.WriteString(`,
  "testbench": {
    "out": "out", "drive": "VINP", "feedback": "EFB", "supply": "VDD",
    "acStart": 100, "acStop": 1e9,
    "tail": "MT", "slewCapF": 2e-12
  },
  "design": [
    {"name": "W1", "unit": "um", "init": 30, "lo": 5, "hi": 400, "log": true,
     "targets": [{"device": "M1", "param": "W", "scale": 1e-6},
                 {"device": "M2", "param": "W", "scale": 1e-6}]},
    {"name": "W3", "unit": "um", "init": 60, "lo": 5, "hi": 400, "log": true,
     "targets": [{"device": "M3", "param": "W", "scale": 1e-6},
                 {"device": "M4", "param": "W", "scale": 1e-6}]},
    {"name": "WT", "unit": "um", "init": 100, "lo": 10, "hi": 800, "log": true,
     "targets": [{"device": "MT", "param": "W", "scale": 1e-6}]}
  ],
  "statistical": {
    "globals": [
      {"name": "g.dVthN", "kind": "vth", "polarity": 1, "sigma": 0.015},
      {"name": "g.dVthP", "kind": "vth", "polarity": -1, "sigma": 0.015},
      {"name": "g.dBetaN", "kind": "beta", "polarity": 1, "sigma": 0.025},
      {"name": "g.dBetaP", "kind": "beta", "polarity": -1, "sigma": 0.025}
    ],
    "locals": [
      {"device": "M1", "avt": 0.010, "abeta": 0.012},
      {"device": "M2", "avt": 0.010, "abeta": 0.012},
      {"device": "M3", "avt": 0.010, "abeta": 0.012},
      {"device": "M4", "avt": 0.010, "abeta": 0.012}
    ]
  },
  "specs": [
    {"name": "A0", "measure": "a0_db", "kind": "ge", "bound": 40, "unit": "dB"},
    {"name": "ft", "measure": "ft_mhz", "kind": "ge", "bound": 40, "unit": "MHz"},
    {"name": "CMRR", "measure": "cmrr_db", "kind": "ge", "bound": 80, "unit": "dB"},
    {"name": "SRp", "measure": "sr_vus", "kind": "ge", "bound": 35, "unit": "V/us"},
    {"name": "Power", "measure": "power_mw", "kind": "le", "bound": 3.5, "unit": "mW"}
  ],
  "theta": [
    {"name": "T", "nominal": 27, "lo": -40, "hi": 125, "apply": "temp"},
    {"name": "VDD", "nominal": 3.3, "lo": 3.0, "hi": 3.6, "apply": "source:VDD"}
  ]
}`)
	return b.String()
}

// jsonString encodes a Go string as a JSON string literal.
func jsonString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// TestFoldedCascodeNetlistPort validates the yieldspec path on the
// flagship circuit: the netlist-defined folded-cascode must reproduce the
// native implementation's nominal performances closely.
func TestFoldedCascodeNetlistPort(t *testing.T) {
	p, err := Parse(strings.NewReader(fcSpec()), ".")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStat() != 12 { // 4 globals + 4 devices × 2 locals
		t.Fatalf("stat dim = %d", p.NumStat())
	}
	vals, err := p.Eval(p.InitialDesign(), make([]float64, p.NumStat()), p.NominalTheta())
	if err != nil {
		t.Fatal(err)
	}
	// Native nominal values (see circuits.TestProbeFoldedCascodeNominal):
	// A0 ≈ 74.3 dB, ft ≈ 27.8 MHz, CMRR ≈ 110.4 dB, SR ≈ 52.4 V/µs,
	// Power ≈ 1.02 mW.
	want := []struct {
		name string
		val  float64
		tol  float64
	}{
		{"A0", 74.3, 1.0},
		{"ft", 27.8, 1.0},
		{"CMRR", 110.4, 2.0},
		{"SRp", 52.4, 2.0},
		{"Power", 1.02, 0.05},
	}
	for i, w := range want {
		if math.Abs(vals[i]-w.val) > w.tol {
			t.Errorf("%s = %v want %v ± %v (native implementation)", w.name, vals[i], w.val, w.tol)
		}
	}

	// Supply tracking: at VDD = 3.6 the bias rails must follow, keeping
	// the circuit biased (power rises, A0 stays sane).
	hi, err := p.Eval(p.InitialDesign(), make([]float64, p.NumStat()), []float64{27, 3.6})
	if err != nil {
		t.Fatal(err)
	}
	if hi[0] < 50 {
		t.Errorf("A0 at VDD=3.6 collapsed to %v; bias rails not tracking", hi[0])
	}
	if hi[4] <= vals[4] {
		t.Errorf("power must rise with VDD: %v vs %v", hi[4], vals[4])
	}

	// Constraints: 11 transistors → 22 sizing rules, all satisfied.
	cons, err := p.Constraints(p.InitialDesign())
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) != 22 {
		t.Fatalf("constraints = %d want 22", len(cons))
	}
	for i, c := range cons {
		if c < 0 {
			t.Errorf("constraint %s violated: %v", p.ConstraintNames[i], c)
		}
	}
}
