// Package yieldspec builds a complete yield-optimization problem from two
// plain files: a SPICE-like netlist (see internal/netlist) and a JSON
// specification describing the design parameters, the statistical model,
// the performance specs with their measurements, and the operating
// ranges. It is the no-Go-code entry point to the optimizer:
//
//	go run ./cmd/yieldopt -spec myamp.json
//
// The JSON schema (all units designer-friendly):
//
//	{
//	  "name": "my-amp",
//	  "netlistFile": "myamp.cir",        // or "netlist": "inline text"
//	  "testbench": {
//	    "out": "out",                    // AC measurement node
//	    "drive": "VIN",                  // AC drive source (V element)
//	    "feedback": "EFB",               // optional loop-break VCVS
//	    "supply": "VDD",                 // power measurement source
//	    "acStart": 100, "acStop": 1e9,
//	    "tail": "MT", "slewCapF": 2e-12  // only for the sr_vus measure
//	  },
//	  "design": [
//	    {"name": "W1", "unit": "µm", "init": 30, "lo": 5, "hi": 400,
//	     "log": true,
//	     "targets": [{"device": "M1", "param": "W", "scale": 1e-6}]}
//	  ],
//	  "statistical": {
//	    "globals": [{"name": "g.dVthN", "kind": "vth", "polarity": 1,
//	                 "sigma": 0.015}],
//	    "locals":  [{"device": "M1", "avt": 0.010, "abeta": 0.012}]
//	  },
//	  "specs": [
//	    {"name": "A0", "measure": "a0_db", "kind": "ge", "bound": 40,
//	     "unit": "dB"},
//	    {"name": "Vout", "measure": "vdc:out", "kind": "ge", "bound": 1}
//	  ],
//	  "theta": [
//	    {"name": "T", "nominal": 27, "lo": -40, "hi": 125,
//	     "apply": "temp"},
//	    {"name": "VDD", "nominal": 3.3, "lo": 3.0, "hi": 3.6,
//	     "apply": "source:VDD"}
//	  ],
//	  "constraints": {"satMargin": 0.05, "vonMargin": 0.03}
//	}
//
// Available measures: a0_db, ft_mhz, pm_deg, cmrr_db, power_mw, sr_vus,
// vdc:<node>. Design-parameter targets may set "W" or "L" of a MOSFET,
// "R", "C" or "DC" of the matching element; "scale" converts designer
// units into SI (e.g. 1e-6 for µm).
package yieldspec

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"specwise/internal/netlist"
	"specwise/internal/problem"
	"specwise/internal/spice"
	"specwise/internal/variation"
)

// Config is the top-level JSON document.
type Config struct {
	Name        string       `json:"name"`
	Netlist     string       `json:"netlist"`
	NetlistFile string       `json:"netlistFile"`
	Testbench   Testbench    `json:"testbench"`
	Design      []Design     `json:"design"`
	Statistical Statistical  `json:"statistical"`
	Specs       []SpecConfig `json:"specs"`
	Theta       []Theta      `json:"theta"`
	Constraints Constraints  `json:"constraints"`
}

// Testbench names the circuit elements the measurements use.
type Testbench struct {
	Out      string  `json:"out"`
	Drive    string  `json:"drive"`
	Feedback string  `json:"feedback"`
	Supply   string  `json:"supply"`
	ACStart  float64 `json:"acStart"`
	ACStop   float64 `json:"acStop"`
	Tail     string  `json:"tail"`
	SlewCapF float64 `json:"slewCapF"`
}

// Design is one bounded design parameter with its netlist bindings.
type Design struct {
	Name    string   `json:"name"`
	Unit    string   `json:"unit"`
	Init    float64  `json:"init"`
	Lo      float64  `json:"lo"`
	Hi      float64  `json:"hi"`
	Log     bool     `json:"log"`
	Targets []Target `json:"targets"`
}

// Target maps a design parameter onto one element attribute.
type Target struct {
	Device string  `json:"device"`
	Param  string  `json:"param"` // W, L, R, C, DC
	Scale  float64 `json:"scale"` // designer units → SI (default 1)
}

// Statistical declares the process-variation model.
type Statistical struct {
	Globals []GlobalVar `json:"globals"`
	Locals  []LocalVar  `json:"locals"`
}

// GlobalVar is a die-level variation shared by one polarity.
type GlobalVar struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"` // "vth" or "beta"
	Polarity int     `json:"polarity"`
	Sigma    float64 `json:"sigma"`
}

// LocalVar attaches Pelgrom mismatch to one device; zero coefficients
// are skipped.
type LocalVar struct {
	Device string  `json:"device"`
	AVT    float64 `json:"avt"`   // V·µm
	ABeta  float64 `json:"abeta"` // µm (relative)
}

// SpecConfig is one performance specification.
type SpecConfig struct {
	Name    string  `json:"name"`
	Measure string  `json:"measure"`
	Kind    string  `json:"kind"` // "ge" or "le"
	Bound   float64 `json:"bound"`
	Unit    string  `json:"unit"`
}

// Theta is one operating parameter.
type Theta struct {
	Name    string  `json:"name"`
	Nominal float64 `json:"nominal"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	Apply   string  `json:"apply"` // "temp" or "source:<name>"
}

// Constraints configures the automatic sizing rules.
type Constraints struct {
	SatMargin float64 `json:"satMargin"`
	VonMargin float64 `json:"vonMargin"`
	// Disable turns the functional constraints off entirely.
	Disable bool `json:"disable"`
}

// Load reads a JSON config file and builds the problem. It is a thin
// wrapper over Parse; relative netlistFile paths resolve against the
// config file's directory.
func Load(path string) (*problem.Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f, filepath.Dir(path))
}

// Parse decodes a JSON configuration from r and builds the problem. It
// is the core entry point: Load (files) and the job service (request
// bodies) both funnel through it. A netlistFile reference resolves
// against baseDir; an inline netlist needs no filesystem access at all.
// An empty baseDir marks an inline spec (one from a request body, say):
// it has no directory of its own, so a netlistFile is rejected rather
// than read from wherever the process happens to run.
func Parse(r io.Reader, baseDir string) (*problem.Problem, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("yieldspec: %w", err)
	}
	if baseDir == "" && cfg.NetlistFile != "" {
		return nil, fmt.Errorf("yieldspec: netlistFile %q in an inline spec: inline specs must carry the netlist inline", cfg.NetlistFile)
	}
	if cfg.Netlist == "" {
		if cfg.NetlistFile == "" {
			return nil, fmt.Errorf("yieldspec: either netlist or netlistFile is required")
		}
		data, err := os.ReadFile(filepath.Join(baseDir, cfg.NetlistFile))
		if err != nil {
			return nil, fmt.Errorf("yieldspec: %w", err)
		}
		cfg.Netlist = string(data)
	}
	return Build(&cfg)
}

// Build assembles the problem from an in-memory configuration (Netlist
// must hold the netlist text).
func Build(cfg *Config) (*problem.Problem, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}

	// Parse once to validate and to freeze the statistical model geometry
	// sources; every evaluation re-parses (cheap) so circuits stay
	// independent across concurrent calls.
	base, err := netlist.ParseString(cfg.Netlist)
	if err != nil {
		return nil, err
	}
	if err := validateBindings(cfg, base); err != nil {
		return nil, err
	}

	model := buildVariationModel(cfg)

	specs := make([]problem.Spec, len(cfg.Specs))
	for i, s := range cfg.Specs {
		kind := problem.GE
		if strings.EqualFold(s.Kind, "le") {
			kind = problem.LE
		}
		specs[i] = problem.Spec{Name: s.Name, Unit: s.Unit, Kind: kind, Bound: s.Bound}
	}
	design := make([]problem.Param, len(cfg.Design))
	for i, d := range cfg.Design {
		design[i] = problem.Param{
			Name: d.Name, Unit: d.Unit, Init: d.Init,
			Lo: d.Lo, Hi: d.Hi, LogScale: d.Log,
		}
	}
	theta := make([]problem.OpRange, len(cfg.Theta))
	for i, t := range cfg.Theta {
		theta[i] = problem.OpRange{Name: t.Name, Nominal: t.Nominal, Lo: t.Lo, Hi: t.Hi}
	}

	ev := &evaluator{cfg: cfg, model: model}

	p := &problem.Problem{
		Name:      cfg.Name,
		Specs:     specs,
		Design:    design,
		StatNames: model.Names(),
		Theta:     theta,
		Eval:      ev.eval,
	}
	if !cfg.Constraints.Disable {
		p.Constraints = ev.constraints
		for _, name := range sortedMosNames(base.Mosfets) {
			p.ConstraintNames = append(p.ConstraintNames, name+".sat", name+".von")
		}
	}
	return p, nil
}

// acPointsPerDecade is the density of the AC measures' frequency grid.
const acPointsPerDecade = 8

func validate(cfg *Config) error {
	if cfg.Name == "" {
		return fmt.Errorf("yieldspec: name is required")
	}
	if len(cfg.Specs) == 0 {
		return fmt.Errorf("yieldspec: at least one spec is required")
	}
	if _, err := spice.SweepPoints(cfg.Testbench.ACStart, cfg.Testbench.ACStop, acPointsPerDecade); err != nil {
		// Only required when an AC measure is used.
		for _, s := range cfg.Specs {
			switch s.Measure {
			case "a0_db", "ft_mhz", "pm_deg", "cmrr_db":
				return fmt.Errorf("yieldspec: spec %q needs a valid testbench acStart/acStop: %w", s.Name, err)
			}
		}
	}
	for _, s := range cfg.Specs {
		if !strings.EqualFold(s.Kind, "ge") && !strings.EqualFold(s.Kind, "le") {
			return fmt.Errorf("yieldspec: spec %q kind must be ge or le", s.Name)
		}
		if err := checkMeasure(s.Measure); err != nil {
			return fmt.Errorf("yieldspec: spec %q: %w", s.Name, err)
		}
		// Measures with testbench prerequisites fail here, not at eval.
		switch s.Measure {
		case "a0_db", "ft_mhz", "pm_deg", "cmrr_db":
			if cfg.Testbench.Drive == "" || cfg.Testbench.Out == "" {
				return fmt.Errorf("yieldspec: spec %q needs testbench drive and out", s.Name)
			}
			if s.Measure == "cmrr_db" && cfg.Testbench.Feedback == "" {
				return fmt.Errorf("yieldspec: spec %q needs a testbench feedback VCVS", s.Name)
			}
		case "power_mw":
			if cfg.Testbench.Supply == "" {
				return fmt.Errorf("yieldspec: spec %q needs a testbench supply source", s.Name)
			}
		case "sr_vus":
			if cfg.Testbench.Tail == "" || cfg.Testbench.SlewCapF <= 0 {
				return fmt.Errorf("yieldspec: spec %q needs testbench tail and slewCapF", s.Name)
			}
		}
	}
	for _, d := range cfg.Design {
		if d.Lo > d.Hi || d.Init < d.Lo || d.Init > d.Hi {
			return fmt.Errorf("yieldspec: design %q bounds invalid", d.Name)
		}
		if len(d.Targets) == 0 {
			return fmt.Errorf("yieldspec: design %q has no targets", d.Name)
		}
	}
	for _, t := range cfg.Theta {
		if t.Apply != "temp" && !strings.HasPrefix(t.Apply, "source:") {
			return fmt.Errorf("yieldspec: theta %q apply must be \"temp\" or \"source:<name>\"", t.Name)
		}
	}
	for _, g := range cfg.Statistical.Globals {
		if g.Kind != "vth" && g.Kind != "beta" {
			return fmt.Errorf("yieldspec: global %q kind must be vth or beta", g.Name)
		}
	}
	return nil
}

func checkMeasure(m string) error {
	switch m {
	case "a0_db", "ft_mhz", "pm_deg", "cmrr_db", "power_mw", "sr_vus":
		return nil
	}
	if strings.HasPrefix(m, "vdc:") && len(m) > 4 {
		return nil
	}
	return fmt.Errorf("unknown measure %q", m)
}

// validateBindings checks that every named element exists in the netlist
// and is of the kind its role needs, so the measurement flow can rely on
// both.
func validateBindings(cfg *Config, deck *netlist.Deck) error {
	find := func(name string) spice.Device { return deck.Circuit.FindDevice(name) }
	for _, d := range cfg.Design {
		for _, t := range d.Targets {
			dev := find(t.Device)
			if dev == nil {
				return fmt.Errorf("yieldspec: design %q targets unknown device %q", d.Name, t.Device)
			}
			if err := applyTarget(dev, t, 1); err != nil {
				return fmt.Errorf("yieldspec: design %q: %w", d.Name, err)
			}
		}
	}
	for _, l := range cfg.Statistical.Locals {
		if _, ok := deck.Mosfets[l.Device]; !ok {
			return fmt.Errorf("yieldspec: local variation targets unknown MOSFET %q", l.Device)
		}
	}
	isVSource := func(dev spice.Device) bool { _, ok := dev.(*spice.VSource); return ok }
	isVCVS := func(dev spice.Device) bool { _, ok := dev.(*spice.VCVS); return ok }
	isMosfet := func(dev spice.Device) bool { _, ok := dev.(*spice.Mosfet); return ok }
	tb := cfg.Testbench
	for _, req := range []struct {
		what, name, kind string
		is               func(spice.Device) bool
	}{
		{"drive", tb.Drive, "a V source", isVSource},
		{"feedback", tb.Feedback, "a VCVS", isVCVS},
		{"supply", tb.Supply, "a V source", isVSource},
		{"tail", tb.Tail, "a MOSFET", isMosfet},
	} {
		if req.name == "" {
			continue
		}
		dev := find(req.name)
		if dev == nil {
			return fmt.Errorf("yieldspec: testbench %s element %q not in netlist", req.what, req.name)
		}
		if !req.is(dev) {
			return fmt.Errorf("yieldspec: testbench %s element %q is %T, not %s", req.what, req.name, dev, req.kind)
		}
	}
	if tb.Out != "" {
		if _, ok := deck.Nodes[tb.Out]; !ok {
			return fmt.Errorf("yieldspec: testbench out node %q not in netlist", tb.Out)
		}
	}
	for _, t := range cfg.Theta {
		if src, ok := strings.CutPrefix(t.Apply, "source:"); ok {
			dev := find(src)
			if dev == nil {
				return fmt.Errorf("yieldspec: theta %q targets unknown source %q", t.Name, src)
			}
			if !isVSource(dev) {
				return fmt.Errorf("yieldspec: theta %q target %q is %T, not a V source", t.Name, src, dev)
			}
		}
	}
	for _, s := range cfg.Specs {
		if node, ok := strings.CutPrefix(s.Measure, "vdc:"); ok {
			if _, ok := deck.Nodes[node]; !ok {
				return fmt.Errorf("yieldspec: spec %q probes unknown node %q", s.Name, node)
			}
		}
	}
	return nil
}

func buildVariationModel(cfg *Config) *variation.Model {
	m := &variation.Model{}
	for _, g := range cfg.Statistical.Globals {
		kind := variation.VthShift
		if g.Kind == "beta" {
			kind = variation.BetaRel
		}
		m.Globals = append(m.Globals, variation.Global{
			Name: g.Name, Kind: kind, Polarity: g.Polarity, Sigma: g.Sigma,
		})
	}
	for _, l := range cfg.Statistical.Locals {
		if l.AVT > 0 {
			m.Locals = append(m.Locals, variation.Local{
				Name: l.Device + ".dVth", Device: l.Device,
				Kind: variation.VthShift, A: l.AVT,
			})
		}
		if l.ABeta > 0 {
			m.Locals = append(m.Locals, variation.Local{
				Name: l.Device + ".dBeta", Device: l.Device,
				Kind: variation.BetaRel, A: l.ABeta,
			})
		}
	}
	return m
}

// applyTarget writes one design value into a parsed element.
func applyTarget(dev spice.Device, t Target, value float64) error {
	scale := t.Scale
	if scale == 0 {
		scale = 1
	}
	v := value * scale
	switch d := dev.(type) {
	case *spice.Mosfet:
		switch strings.ToUpper(t.Param) {
		case "W":
			d.W = v
		case "L":
			d.L = v
		default:
			return fmt.Errorf("MOSFET %q has no parameter %q", t.Device, t.Param)
		}
	case *spice.Resistor:
		if !strings.EqualFold(t.Param, "R") {
			return fmt.Errorf("resistor %q has no parameter %q", t.Device, t.Param)
		}
		d.R = v
	case *spice.Capacitor:
		if !strings.EqualFold(t.Param, "C") {
			return fmt.Errorf("capacitor %q has no parameter %q", t.Device, t.Param)
		}
		d.C = v
	case *spice.VSource:
		if !strings.EqualFold(t.Param, "DC") {
			return fmt.Errorf("source %q has no parameter %q", t.Device, t.Param)
		}
		d.DC = v
	default:
		return fmt.Errorf("device %q (%T) cannot be a design target", t.Device, dev)
	}
	return nil
}

// evaluator performs the measurement flow for one configuration.
type evaluator struct {
	cfg   *Config
	model *variation.Model
}

// instantiate parses a fresh deck and applies design, statistical and
// operating values.
func (ev *evaluator) instantiate(d, s, theta []float64) (*netlist.Deck, error) {
	deck, err := netlist.ParseString(ev.cfg.Netlist)
	if err != nil {
		return nil, err
	}
	// Design values.
	for i, dp := range ev.cfg.Design {
		for _, t := range dp.Targets {
			dev := deck.Circuit.FindDevice(t.Device)
			if err := applyTarget(dev, t, d[i]); err != nil {
				return nil, err
			}
		}
	}
	// Operating values: sources first, temperature last (model cards).
	var tempC float64 = 27
	for i, t := range ev.cfg.Theta {
		if t.Apply == "temp" {
			tempC = theta[i]
			continue
		}
		src := strings.TrimPrefix(t.Apply, "source:")
		deck.Circuit.FindDevice(src).(*spice.VSource).DC = theta[i]
	}
	for _, m := range deck.Mosfets {
		m.P = m.P.AtTemp(tempC)
	}
	// Statistical deltas, Pelgrom sigmas from the post-design geometry.
	if s != nil && ev.model.Dim() > 0 {
		geom := func(device string) (w, l float64) {
			m := deck.Mosfets[device]
			return m.W, m.L
		}
		for _, delta := range ev.model.Physical(s, geom) {
			for name, m := range deck.Mosfets {
				if delta.Device != "" {
					if name != delta.Device {
						continue
					}
				} else if delta.Polarity != 0 && m.Polarity != delta.Polarity {
					continue
				}
				switch delta.Kind {
				case variation.VthShift:
					m.DVth += delta.Value
				case variation.BetaRel:
					m.BetaScale *= 1 + delta.Value
				}
			}
		}
	}
	return deck, nil
}

// eval implements problem.EvalFunc.
func (ev *evaluator) eval(d, s, theta []float64) ([]float64, error) {
	deck, err := ev.instantiate(d, s, theta)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ev.cfg.Specs))
	meas, err := ev.measure(deck)
	if err != nil {
		// Broken operating point: every measure reads NaN (see the
		// failedPerf convention in internal/circuits).
		for i := range out {
			out[i] = math.NaN()
		}
		return out, nil
	}
	for i, sp := range ev.cfg.Specs {
		v, ok := meas[sp.Measure]
		if !ok {
			return nil, fmt.Errorf("yieldspec: measure %q missing", sp.Measure)
		}
		out[i] = v
	}
	return out, nil
}

// measure runs DC (+AC) and extracts every measure the config mentions.
func (ev *evaluator) measure(deck *netlist.Deck) (map[string]float64, error) {
	tb := ev.cfg.Testbench
	dc, err := deck.Circuit.DC(spice.DCOptions{})
	if err != nil {
		return nil, err
	}
	meas := make(map[string]float64)
	need := make(map[string]bool)
	for _, sp := range ev.cfg.Specs {
		need[sp.Measure] = true
	}

	for m := range need {
		if node, ok := strings.CutPrefix(m, "vdc:"); ok {
			meas[m] = dc.Voltage(deck.Nodes[node])
		}
	}
	if need["power_mw"] {
		vs := deck.Circuit.FindDevice(tb.Supply).(*spice.VSource)
		meas["power_mw"] = math.Abs(dc.BranchCurrent(vs.Branch())) * vs.DC * 1e3
	}
	if need["sr_vus"] {
		meas["sr_vus"] = deck.Mosfets[tb.Tail].Op(dc.X).ID / tb.SlewCapF / 1e6
	}

	if need["a0_db"] || need["ft_mhz"] || need["pm_deg"] || need["cmrr_db"] {
		deck.Circuit.FindDevice(tb.Drive).(*spice.VSource).AC = 1
		var fb *spice.VCVS
		if tb.Feedback != "" {
			fb = deck.Circuit.FindDevice(tb.Feedback).(*spice.VCVS)
			fb.ACMode = spice.VCVSACFixed
			fb.ACValue = 0
		}
		bode, err := deck.Circuit.ACSweep(dc, deck.Nodes[tb.Out], tb.ACStart, tb.ACStop, acPointsPerDecade)
		if err != nil {
			return nil, err
		}
		a0 := bode.DCGainDB()
		meas["a0_db"] = a0
		ftHz, _, okFt := bode.UnityCrossing()
		pm, okPM := bode.PhaseMarginDeg()
		if !okFt || !okPM {
			ftHz = tb.ACStart * math.Pow(10, math.Min(a0, 0)/20)
			pm = 0
		}
		meas["ft_mhz"] = ftHz / 1e6
		meas["pm_deg"] = pm

		if need["cmrr_db"] {
			fb.ACValue = 1
			cm, err := deck.Circuit.ACNode(dc, 2*math.Pi*tb.ACStart, deck.Nodes[tb.Out])
			if err != nil {
				return nil, err
			}
			mag := math.Hypot(real(cm), imag(cm))
			meas["cmrr_db"] = a0 - 20*math.Log10(math.Max(mag, 1e-12))
		}
	}
	return meas, nil
}

// constraints implements problem.ConstraintFunc: automatic sizing rules
// for every MOSFET in the deck.
func (ev *evaluator) constraints(d []float64) ([]float64, error) {
	nominalTheta := make([]float64, len(ev.cfg.Theta))
	for i, t := range ev.cfg.Theta {
		nominalTheta[i] = t.Nominal
	}
	deck, err := ev.instantiate(d, nil, nominalTheta)
	if err != nil {
		return nil, err
	}
	satM := ev.cfg.Constraints.SatMargin
	vonM := ev.cfg.Constraints.VonMargin
	if satM == 0 {
		satM = 0.05
	}
	if vonM == 0 {
		vonM = 0.03
	}
	n := 2 * len(deck.Mosfets)
	dc, err := deck.Circuit.DC(spice.DCOptions{})
	if err != nil {
		out := make([]float64, n)
		for i := range out {
			out[i] = -1e3
		}
		return out, nil
	}
	out := make([]float64, 0, n)
	for _, name := range sortedMosNames(deck.Mosfets) {
		op := deck.Mosfets[name].Op(dc.X)
		out = append(out, op.SatMargin-satM, op.Vov-vonM)
	}
	return out, nil
}

// sortedMosNames gives map iteration a deterministic order so constraint
// vectors always line up with ConstraintNames.
func sortedMosNames(ms map[string]*spice.Mosfet) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
