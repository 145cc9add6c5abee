package yieldspec

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specwise/internal/core"
	"specwise/internal/netlist"
	_ "specwise/internal/search" // register the search backends
	"specwise/internal/spice"
)

// csAmpConfig is a complete spec for a common-source amplifier whose gain
// and power trade off through the width and the load resistor.
const csAmpConfig = `{
  "name": "cs-amp",
  "netlist": "common source amplifier\n.model nch NMOS VT0=0.71 KP=120u LAMBDA=0.06\nVDD vdd 0 3.3\nVIN g 0 1.0 AC 1\nM1 d g 0 0 nch W=20u L=2u\nRL vdd d 47k\nCL d 0 1p\n",
  "testbench": {
    "out": "d",
    "drive": "VIN",
    "supply": "VDD",
    "acStart": 1000,
    "acStop": 1e9
  },
  "design": [
    {"name": "W1", "unit": "um", "init": 20, "lo": 2, "hi": 200, "log": true,
     "targets": [{"device": "M1", "param": "W", "scale": 1e-6}]},
    {"name": "RL", "unit": "kohm", "init": 47, "lo": 5, "hi": 200, "log": true,
     "targets": [{"device": "RL", "param": "R", "scale": 1e3}]}
  ],
  "statistical": {
    "globals": [
      {"name": "g.dVthN", "kind": "vth", "polarity": 1, "sigma": 0.015},
      {"name": "g.dBetaN", "kind": "beta", "polarity": 1, "sigma": 0.025}
    ],
    "locals": [{"device": "M1", "avt": 0.010, "abeta": 0.012}]
  },
  "specs": [
    {"name": "A0", "measure": "a0_db", "kind": "ge", "bound": 17, "unit": "dB"},
    {"name": "ft", "measure": "ft_mhz", "kind": "ge", "bound": 25, "unit": "MHz"},
    {"name": "Power", "measure": "power_mw", "kind": "le", "bound": 0.5, "unit": "mW"},
    {"name": "Vout", "measure": "vdc:d", "kind": "ge", "bound": 0.4, "unit": "V"}
  ],
  "theta": [
    {"name": "T", "nominal": 27, "lo": -40, "hi": 125, "apply": "temp"},
    {"name": "VDD", "nominal": 3.3, "lo": 3.0, "hi": 3.6, "apply": "source:VDD"}
  ]
}`

func TestBuildFromConfig(t *testing.T) {
	p, err := Parse(strings.NewReader(csAmpConfig), ".")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Name != "cs-amp" || p.NumSpecs() != 4 || p.NumDesign() != 2 || p.NumStat() != 4 {
		t.Fatalf("shape: %d specs %d design %d stat", p.NumSpecs(), p.NumDesign(), p.NumStat())
	}
	if len(p.ConstraintNames) != 2 { // one MOSFET: sat + von
		t.Errorf("constraints = %v", p.ConstraintNames)
	}

	vals, err := p.Eval(p.InitialDesign(), make([]float64, p.NumStat()), p.NominalTheta())
	if err != nil {
		t.Fatal(err)
	}
	// The hand-built equivalent (see spicesim smoke run) gives ≈23.9 dB.
	if math.Abs(vals[0]-23.9) > 0.5 {
		t.Errorf("A0 = %v want ≈23.9 dB", vals[0])
	}
	if vals[1] < 30 || vals[1] > 120 {
		t.Errorf("ft = %v MHz out of plausible band", vals[1])
	}
	if vals[3] < 0.5 || vals[3] > 3.3 {
		t.Errorf("Vout = %v", vals[3])
	}
}

func TestDesignTargetsApply(t *testing.T) {
	p, err := Parse(strings.NewReader(csAmpConfig), ".")
	if err != nil {
		t.Fatal(err)
	}
	d := p.InitialDesign()
	s := make([]float64, p.NumStat())
	th := p.NominalTheta()
	base, err := p.Eval(d, s, th)
	if err != nil {
		t.Fatal(err)
	}
	// Halving RL halves the gain (−6 dB) while the drain current barely
	// moves (channel-length modulation only).
	d[1] = d[1] / 2
	half, err := p.Eval(d, s, th)
	if err != nil {
		t.Fatal(err)
	}
	if diff := base[0] - half[0]; math.Abs(diff-6) > 1.5 {
		t.Errorf("gain drop for RL/2 = %v dB want ≈6", diff)
	}
}

func TestStatisticalDeltasApply(t *testing.T) {
	p, err := Parse(strings.NewReader(csAmpConfig), ".")
	if err != nil {
		t.Fatal(err)
	}
	d := p.InitialDesign()
	th := p.NominalTheta()
	s := make([]float64, p.NumStat())
	base, _ := p.Eval(d, s, th)
	// +3σ global Vth shift cuts the overdrive and the current: the DC
	// output voltage must rise (less drop across RL).
	s[0] = 3
	shifted, _ := p.Eval(d, s, th)
	if shifted[3] <= base[3] {
		t.Errorf("Vth+ should raise Vout: %v vs %v", shifted[3], base[3])
	}
}

func TestThetaApplies(t *testing.T) {
	p, err := Parse(strings.NewReader(csAmpConfig), ".")
	if err != nil {
		t.Fatal(err)
	}
	d := p.InitialDesign()
	s := make([]float64, p.NumStat())
	hot, _ := p.Eval(d, s, []float64{125, 3.3})
	cold, _ := p.Eval(d, s, []float64{-40, 3.3})
	if hot[3] == cold[3] {
		t.Error("temperature did not affect the operating point")
	}
	lo, _ := p.Eval(d, s, []float64{27, 3.0})
	hi, _ := p.Eval(d, s, []float64{27, 3.6})
	if lo[2] >= hi[2] {
		t.Errorf("power must rise with VDD: %v vs %v", lo[2], hi[2])
	}
}

func TestEndToEndOptimizeFromSpec(t *testing.T) {
	p, err := Parse(strings.NewReader(csAmpConfig), ".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewAndRun(p, core.Options{
		ModelSamples:  1500,
		VerifySamples: 80,
		MaxIterations: 2,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Iterations[0].MCYield
	last := res.Iterations[len(res.Iterations)-1].MCYield
	t.Logf("cs-amp yield from spec file: %.3f -> %.3f", first, last)
	if last < first {
		t.Errorf("optimization regressed: %v -> %v", first, last)
	}
	if last < 0.85 {
		t.Errorf("final yield = %v want >= 0.85", last)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(s string) string
		errFrag string
	}{
		{"missing netlist", func(s string) string {
			return strings.Replace(s, `"netlist":`, `"netlistFile": "", "xnetlist":`, 1)
		}, ""},
		{"bad measure", func(s string) string {
			return strings.Replace(s, `"a0_db"`, `"nonsense"`, 1)
		}, "unknown measure"},
		{"bad kind", func(s string) string {
			return strings.Replace(s, `"kind": "ge", "bound": 17`, `"kind": "eq", "bound": 17`, 1)
		}, "kind must be"},
		{"unknown device target", func(s string) string {
			return strings.Replace(s, `"device": "M1", "param": "W"`, `"device": "M9", "param": "W"`, 1)
		}, "unknown device"},
		{"bad theta apply", func(s string) string {
			return strings.Replace(s, `"apply": "temp"`, `"apply": "frobnicate"`, 1)
		}, "apply must be"},
		{"unknown probe node", func(s string) string {
			return strings.Replace(s, `"vdc:d"`, `"vdc:nowhere"`, 1)
		}, "unknown node"},
		// Testbench elements must be of the kind their role needs: a
		// resistor as supply once parsed and then panicked in Eval, and as
		// drive it parsed and then read NaN for every measure.
		{"supply not a V source", func(s string) string {
			return strings.Replace(s, `"supply": "VDD"`, `"supply": "RL"`, 1)
		}, `supply element "RL" is *spice.Resistor, not a V source`},
		{"drive not a V source", func(s string) string {
			return strings.Replace(s, `"drive": "VIN"`, `"drive": "RL"`, 1)
		}, `drive element "RL" is *spice.Resistor, not a V source`},
		{"feedback not a VCVS", func(s string) string {
			return strings.Replace(s, `"supply": "VDD"`, `"supply": "VDD", "feedback": "VIN"`, 1)
		}, `feedback element "VIN" is *spice.VSource, not a VCVS`},
		{"tail not a MOSFET", func(s string) string {
			return strings.Replace(s, `"supply": "VDD"`, `"supply": "VDD", "tail": "CL"`, 1)
		}, `tail element "CL" is *spice.Capacitor, not a MOSFET`},
		{"theta source not a V source", func(s string) string {
			return strings.Replace(s, `"apply": "source:VDD"`, `"apply": "source:RL"`, 1)
		}, `target "RL" is *spice.Resistor, not a V source`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(c.mutate(csAmpConfig)), ".")
			if err == nil {
				t.Fatal("expected error")
			}
			if c.errFrag != "" && !strings.Contains(err.Error(), c.errFrag) {
				t.Errorf("error %q missing %q", err, c.errFrag)
			}
		})
	}
}

func TestUnknownJSONFieldRejected(t *testing.T) {
	bad := strings.Replace(csAmpConfig, `"name": "cs-amp"`, `"name": "cs-amp", "typo": 1`, 1)
	if _, err := Parse(strings.NewReader(bad), "."); err == nil {
		t.Error("unknown JSON field accepted")
	}
}

func TestConstraintsDeterministicOrder(t *testing.T) {
	p, err := Parse(strings.NewReader(csAmpConfig), ".")
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Constraints(p.InitialDesign())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b, err := p.Constraints(p.InitialDesign())
		if err != nil {
			t.Fatal(err)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("constraint order/value not deterministic at %d", j)
			}
		}
	}
}

func TestLoadFromFiles(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "amp.cir")
	if err := os.WriteFile(netPath, []byte("t\nV1 in 0 1\nR1 in out 1k\nR2 out 0 1k\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "amp.json")
	cfg := `{
	  "name": "divider",
	  "netlistFile": "amp.cir",
	  "design": [
	    {"name": "R2", "unit": "kohm", "init": 1, "lo": 0.1, "hi": 10,
	     "targets": [{"device": "R2", "param": "R", "scale": 1e3}]}
	  ],
	  "specs": [
	    {"name": "Vout", "measure": "vdc:out", "kind": "ge", "bound": 0.4, "unit": "V"}
	  ]
	}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := p.Eval(p.InitialDesign(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-0.5) > 1e-6 {
		t.Errorf("divider Vout = %v want 0.5", vals[0])
	}
	// Raising R2 raises the tap voltage.
	v2, err := p.Eval([]float64{3}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v2[0]-0.75) > 1e-6 {
		t.Errorf("R2=3k Vout = %v want 0.75", v2[0])
	}
	if _, err := Load(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing config accepted")
	}
}

func TestApplyTargetAllKinds(t *testing.T) {
	nl := `t
.model nch NMOS
V1 a 0 2
R1 a b 1k
C1 b 0 1p
M1 b a 0 0 nch W=1u L=1u
`
	deck, err := mustDeck(t, nl)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		dev, param string
		value      float64
		check      func() float64
	}{
		{"R1", "R", 2e3, func() float64 { return deck.Circuit.FindDevice("R1").(*spice.Resistor).R }},
		{"C1", "C", 5e-12, func() float64 { return deck.Circuit.FindDevice("C1").(*spice.Capacitor).C }},
		{"V1", "DC", 3, func() float64 { return deck.Circuit.FindDevice("V1").(*spice.VSource).DC }},
		{"M1", "W", 9e-6, func() float64 { return deck.Mosfets["M1"].W }},
		{"M1", "L", 2e-6, func() float64 { return deck.Mosfets["M1"].L }},
	}
	for _, c := range cases {
		err := applyTarget(deck.Circuit.FindDevice(c.dev), Target{Device: c.dev, Param: c.param}, c.value)
		if err != nil {
			t.Fatalf("%s.%s: %v", c.dev, c.param, err)
		}
		if got := c.check(); got != c.value {
			t.Errorf("%s.%s = %v want %v", c.dev, c.param, got, c.value)
		}
	}
	// Wrong attribute names must error.
	for _, c := range []struct{ dev, param string }{
		{"R1", "C"}, {"C1", "R"}, {"V1", "AC"}, {"M1", "VT0"},
	} {
		if err := applyTarget(deck.Circuit.FindDevice(c.dev), Target{Device: c.dev, Param: c.param}, 1); err == nil {
			t.Errorf("%s.%s accepted", c.dev, c.param)
		}
	}
}

func mustDeck(t *testing.T, src string) (*netlist.Deck, error) {
	t.Helper()
	return netlist.ParseString(src)
}

func TestMeasurePrerequisitesValidated(t *testing.T) {
	// sr_vus without a tail must be rejected at build time.
	cfg := strings.Replace(csAmpConfig,
		`{"name": "A0", "measure": "a0_db", "kind": "ge", "bound": 17, "unit": "dB"}`,
		`{"name": "SR", "measure": "sr_vus", "kind": "ge", "bound": 1, "unit": "V/us"}`, 1)
	if _, err := Parse(strings.NewReader(cfg), "."); err == nil ||
		!strings.Contains(err.Error(), "tail") {
		t.Errorf("sr_vus without tail: %v", err)
	}
	// cmrr_db without a feedback element likewise.
	cfg2 := strings.Replace(csAmpConfig,
		`{"name": "A0", "measure": "a0_db", "kind": "ge", "bound": 17, "unit": "dB"}`,
		`{"name": "CMRR", "measure": "cmrr_db", "kind": "ge", "bound": 60, "unit": "dB"}`, 1)
	if _, err := Parse(strings.NewReader(cfg2), "."); err == nil ||
		!strings.Contains(err.Error(), "feedback") {
		t.Errorf("cmrr_db without feedback: %v", err)
	}
	// cmrr_db is an AC measure: it needs a drive like the others.
	cfg3 := strings.Replace(cfg2, `"drive": "VIN",`, `"feedback": "E1",`, 1)
	cfg3 = strings.Replace(cfg3, `CL d 0 1p\n`, `CL d 0 1p\nE1 x 0 d 0 1\n`, 1)
	if _, err := Parse(strings.NewReader(cfg3), "."); err == nil ||
		!strings.Contains(err.Error(), "drive and out") {
		t.Errorf("cmrr_db without drive: %v", err)
	}
}

// overflowACConfig is csAmpConfig with AC bounds whose ratio overflows
// float64: the frequency grid would have +Inf points.
var overflowACConfig = strings.Replace(csAmpConfig,
	`"acStart": 1000,
    "acStop": 1e9`, `"acStart": 1e-300,
    "acStop": 1e300`, 1)

// TestACBoundsRejected: AC bounds the simulator cannot sweep (a ratio
// that overflows, NaN, infinite or decreasing bounds) are refused when
// the spec is validated, so no evaluation ever sizes a grid from them.
func TestACBoundsRejected(t *testing.T) {
	if overflowACConfig == csAmpConfig {
		t.Fatal("fixture edit did not apply")
	}
	if p, err := Parse(strings.NewReader(overflowACConfig), ""); err == nil || !strings.Contains(err.Error(), "acStart/acStop") {
		t.Fatalf("overflowing AC bounds: Parse = %v, %v; want the acStart/acStop refusal", p, err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, b := range [][2]float64{{nan, 1e9}, {1000, nan}, {1000, inf}, {-inf, 1e9}, {1e9, 1000}, {0, 1e9}} {
		var cfg Config
		if err := json.Unmarshal([]byte(csAmpConfig), &cfg); err != nil {
			t.Fatal(err)
		}
		cfg.Testbench.ACStart, cfg.Testbench.ACStop = b[0], b[1]
		if _, err := Build(&cfg); err == nil || !strings.Contains(err.Error(), "acStart/acStop") {
			t.Errorf("AC bounds %v: Build error %v, want the acStart/acStop refusal", b, err)
		}
	}
}
