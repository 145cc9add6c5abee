package circuits

import (
	"fmt"
	"math"
	"sync"

	"specwise/internal/linalg"
	"specwise/internal/problem"
	"specwise/internal/spice"
	"specwise/internal/variation"
)

// Performances bundles the extracted opamp metrics in reporting units.
type Performances struct {
	A0dB    float64 // low-frequency open-loop gain
	FtMHz   float64 // unity-gain frequency
	PMdeg   float64 // phase margin
	CMRRdB  float64 // common-mode rejection ratio at DC
	SRVus   float64 // positive slew rate [V/µs]
	PowerMW float64 // static supply power [mW]
}

// testbench is an opamp circuit with the handles set and evaluate need.
// A problem builds each bench's topology once and reuses it: set writes
// every value that depends on the evaluation point.
type testbench struct {
	ckt     *spice.Circuit
	out     int            // observed output node
	drive   *spice.VSource // AC drive at the non-inverting input
	fb      *spice.VCVS    // DC-closing feedback element at the inverting input
	vddSrc  *spice.VSource
	vdd     float64
	rails   []vddRail        // bias sources referenced to the supply
	tail    *spice.Mosfet    // tail device; its drain current sets the slew rate
	slewCap *spice.Capacitor // capacitance limiting the slew rate (CL or Cc)
	mosfets []*spice.Mosfet
	deltas  []variation.Delta // the current point's physical deltas (reused buffer)
	// dcOpts configures every DC solve of this bench (warm-start guess,
	// shared effort counters). The zero value is a plain cold solve.
	dcOpts spice.DCOptions
}

// vddRail is a bias source held a fixed offset below the supply, as a
// real bias generator tracks its rail.
type vddRail struct {
	src   *spice.VSource
	below float64 // [V]
}

// set writes one evaluation point into the bench: every transistor's
// geometry and temperature-adjusted model card, its statistical deltas
// (applied to nominal ΔVth = 0, β-scale = 1), the supply and the
// sources referenced to it, and the AC settings evaluate mutates. Every
// value that can differ between points or calls is written here, so a
// reused bench holds exactly what a newly built one would. theta =
// [temperature °C, VDD V].
func (tb *testbench) set(geom variation.Geometry, deltas []variation.Delta, theta []float64) {
	tempC, vdd := theta[0], theta[1]
	nmos := spice.DefaultNMOS().AtTemp(tempC)
	pmos := spice.DefaultPMOS().AtTemp(tempC)
	for _, m := range tb.mosfets {
		m.W, m.L = geom(m.Name())
		m.P = nmos
		if m.Polarity < 0 {
			m.P = pmos
		}
		m.DVth, m.BetaScale = 0, 1
	}
	applyDeltas(tb.mosfets, deltas)
	tb.vdd = vdd
	tb.vddSrc.DC = vdd
	tb.drive.DC = vdd / 2 // input common mode
	tb.drive.AC = 0
	tb.fb.ACMode, tb.fb.ACValue = spice.VCVSACNormal, 0
	for _, r := range tb.rails {
		r.src.DC = vdd - r.below
	}
}

// opamp describes one opamp problem's testbench to its harness.
type opamp struct {
	// build constructs the topology and handles; set fills in the values.
	build func() *testbench
	// set writes the point (design d, normalized statistical s, operating
	// theta) into a bench.
	set func(tb *testbench, d, s, theta []float64)
	// fields lists the reported performances in spec order.
	fields []perfField
	// fStart and fStop bound the open-loop AC sweep [Hz].
	fStart, fStop float64
}

// simHarness evaluates one opamp problem. It carries the per-problem
// warm-start state shared by every evaluation — one reference operating
// point, solved once at the initial design, and the cumulative DC and
// solver effort counters — and a free list of built benches. Every
// Eval, EvalSubset and Constraints call takes a bench off the list (or
// builds one when the list is empty), writes its point with set, resets
// the circuit's solvers to a new circuit's state, evaluates and puts
// the bench back; the list therefore holds at most as many benches as
// evaluations ever ran at once. Warm-starting every solve from the same
// fixed reference (rather than from the previous solve) and resetting
// the solvers keep every result, simulation count and solver counter
// independent of call order and of which bench a call gets, so results
// stay deterministic under the optimizer's concurrency and the
// evaluation cache.
type simHarness struct {
	opamp
	// s0 and theta0 are the nominal statistical (all zero) and operating
	// points: the reference bench is solved and the sizing constraints
	// are checked there.
	s0, theta0 []float64

	stats  spice.DCStats
	solver spice.SolverStats
	refOP  linalg.Vector // nil when the reference solve failed
	// symCache shares the reference circuit's symbolic LU factorizations
	// (DC Jacobian and AC system patterns) with every evaluation
	// circuit. It is seeded single-threaded here and frozen before any
	// evaluation runs, so its contents — and the adopted pivot orders —
	// are a fixed function of the problem, independent of evaluation
	// order and concurrency.
	symCache *linalg.SymbolicCache

	mu   sync.Mutex
	free []*testbench
}

// newSimHarness completes p, whose specs, parameters and ranges are
// already filled in, with c's evaluators, constraints and effort
// counters, and returns the harness behind them. It builds the
// reference bench at p's initial design and the nominal point, solves
// it cold and records its operating point as the warm-start reference.
// The solve doubles as the symbolic-cache seeding pass: the reference
// DC factorization stores the Jacobian pattern, and one AC solve in the
// evaluation flow's stamp configuration stores the (G + jωC) pattern.
func newSimHarness(c opamp, p *problem.Problem) *simHarness {
	h := &simHarness{
		opamp:    c,
		s0:       make([]float64, p.NumStat()),
		theta0:   p.NominalTheta(),
		symCache: linalg.NewSymbolicCache(),
	}
	tb0 := c.build()
	c.set(tb0, p.InitialDesign(), h.s0, h.theta0)
	tb0.ckt.Opts.SymCache = h.symCache
	// Count the seeding solves in the shared counters: they carry the
	// problem's only symbolic factorizations once the cache is frozen.
	tb0.ckt.SolverStats = &h.solver
	if dc, err := tb0.ckt.DC(spice.DCOptions{}); err == nil {
		h.refOP = dc.X
		// Mirror evaluate's AC drive configuration so the seeded pattern
		// matches the one every evaluation assembles.
		tb0.drive.AC = 1
		tb0.fb.ACMode = spice.VCVSACFixed
		tb0.fb.ACValue = 0
		_, _ = tb0.ckt.AC(dc, 2*math.Pi)
	}
	h.symCache.Freeze()

	p.Eval = h.eval
	p.EvalSubset = h.evalSubset
	p.Constraints = h.constraints
	p.ConstraintNames = mosConstraintNames(tb0.mosfets)
	p.SimStats = h.counters
	return h
}

// arm points tb's DC solves at the harness reference and counters, and
// its circuit's linear-solver effort at the shared solver counters.
func (h *simHarness) arm(tb *testbench) *testbench {
	tb.dcOpts = spice.DCOptions{InitialX: h.refOP, Stats: &h.stats}
	tb.ckt.SolverStats = &h.solver
	tb.ckt.Opts.SymCache = h.symCache
	return tb
}

// bench takes a bench off the free list, or builds and arms a new one
// when the list is empty, and readies it for the point (d, s, theta).
// Hand it back with release.
func (h *simHarness) bench(d, s, theta []float64) *testbench {
	h.mu.Lock()
	var tb *testbench
	if n := len(h.free); n > 0 {
		tb, h.free = h.free[n-1], h.free[:n-1]
	}
	h.mu.Unlock()
	if tb == nil {
		tb = h.arm(h.build())
	}
	h.set(tb, d, s, theta)
	tb.ckt.ResetSolvers()
	return tb
}

// release returns a bench taken with bench to the free list.
func (h *simHarness) release(tb *testbench) {
	h.mu.Lock()
	h.free = append(h.free, tb)
	h.mu.Unlock()
}

// eval implements problem.Problem.Eval: the full measurement flow.
func (h *simHarness) eval(d, s, theta []float64) ([]float64, error) {
	tb := h.bench(d, s, theta)
	defer h.release(tb)
	p, _ := tb.evaluate(h.fStart, h.fStop, measureFull)
	return h.report(p), nil
}

// evalSubset implements problem.Problem.EvalSubset: the flow up to the
// deepest level a wanted spec's field needs, with NaN reported for the
// specs not wanted.
func (h *simHarness) evalSubset(d, s, theta []float64, want []bool) ([]float64, error) {
	if len(want) != len(h.fields) {
		return nil, fmt.Errorf("circuits: subset mask has %d entries, want %d", len(want), len(h.fields))
	}
	need := measureDC
	for i, f := range h.fields {
		if want[i] && f.need > need {
			need = f.need
		}
	}
	tb := h.bench(d, s, theta)
	defer h.release(tb)
	p, _ := tb.evaluate(h.fStart, h.fStop, need)
	out := h.report(p)
	for i, w := range want {
		if !w {
			out[i] = math.NaN()
		}
	}
	return out, nil
}

// constraints implements problem.Problem.Constraints: the sizing rules
// at the nominal statistical and operating point.
func (h *simHarness) constraints(d []float64) ([]float64, error) {
	tb := h.bench(d, h.s0, h.theta0)
	defer h.release(tb)
	return tb.constraints(), nil
}

// report lists p's reported performances in spec order.
func (h *simHarness) report(p Performances) []float64 {
	out := make([]float64, len(h.fields))
	for i, f := range h.fields {
		out[i] = f.get(p)
	}
	return out
}

// counters snapshots the harness effort counters in problem-layer terms,
// implementing problem.Problem.SimStats.
func (h *simHarness) counters() problem.SimCounters {
	return problem.SimCounters{
		WarmStarts:     h.stats.WarmStarts.Load(),
		WarmConverged:  h.stats.WarmConverged.Load(),
		Fallbacks:      h.stats.Fallbacks.Load(),
		NewtonIters:    h.stats.NewtonIters.Load(),
		Solver:         h.solver.Kind(),
		Factorizations: h.solver.Factorizations.Load(),
		Solves:         h.solver.Solves.Load(),
		SymbolicFacts:  h.solver.Symbolic.Load(),
		MatrixNNZ:      h.solver.MatrixNNZ.Load(),
		FactorNNZ:      h.solver.FactorNNZ.Load(),
		DCSolveNanos:   h.solver.DCNanos.Load(),
		ACSolveNanos:   h.solver.ACNanos.Load(),
		TranSolveNanos: h.solver.TranNanos.Load(),
	}
}

// applyDeltas folds the physical statistical perturbations into the
// matching MOSFET instances of the testbench.
func applyDeltas(mosfets []*spice.Mosfet, deltas []variation.Delta) {
	for _, d := range deltas {
		for _, m := range mosfets {
			if d.Device != "" {
				if m.Name() != d.Device {
					continue
				}
			} else if d.Polarity != 0 && m.Polarity != d.Polarity {
				continue
			}
			switch d.Kind {
			case variation.VthShift:
				m.DVth += d.Value
			case variation.BetaRel:
				m.BetaScale *= 1 + d.Value
			}
			if d.Device != "" {
				break
			}
		}
	}
}

// failedPerf is the performance vector reported when the operating point
// cannot be found: NaN everywhere. NaN fails every spec comparison, and
// the analysis layers (worst-case search, model building, Monte Carlo)
// treat it as "broken circuit" rather than as a differentiable value —
// a finite penalty would poison finite-difference gradients instead.
func failedPerf() Performances {
	nan := math.NaN()
	return Performances{
		A0dB: nan, FtMHz: nan, PMdeg: nan, CMRRdB: nan,
		SRVus: nan, PowerMW: nan,
	}
}

// measure selects how much of the opamp measurement flow evaluate runs.
// Each level includes the analyses of the levels before it.
type measure int

const (
	// measureDC runs the DC operating point alone: slew rate and power.
	measureDC measure = iota
	// measureGain adds the open-loop sweep's first point: A0.
	measureGain
	// measureCMRR adds the common-mode point: CMRR.
	measureCMRR
	// measureFull runs the whole sweep: ft and phase margin as well.
	measureFull
)

// perfField is one reported performance: the measure level that
// produces it and its Performances field.
type perfField struct {
	need measure
	get  func(Performances) float64
}

var (
	fieldA0    = perfField{measureGain, func(p Performances) float64 { return p.A0dB }}
	fieldFt    = perfField{measureFull, func(p Performances) float64 { return p.FtMHz }}
	fieldPM    = perfField{measureFull, func(p Performances) float64 { return p.PMdeg }}
	fieldCMRR  = perfField{measureCMRR, func(p Performances) float64 { return p.CMRRdB }}
	fieldSR    = perfField{measureDC, func(p Performances) float64 { return p.SRVus }}
	fieldPower = perfField{measureDC, func(p Performances) float64 { return p.PowerMW }}
)

// evaluate runs the shared opamp measurement flow up to level need: DC
// bias with the feedback loop closed and operating-point bookkeeping
// (slew rate, power); then an open-loop differential AC sweep (gain, and
// at the full level unity frequency and phase margin); then a single
// common-mode AC point (CMRR). Below the full level the sweep stops
// after its first point, which ACSweepHead computes bit-identically to
// the full sweep, so every measured field equals the full flow's value.
// Fields above need are NaN.
func (tb *testbench) evaluate(fStart, fStop float64, need measure) (Performances, bool) {
	dc, err := tb.ckt.DC(tb.dcOpts)
	if err != nil {
		return failedPerf(), false
	}
	p := failedPerf()

	// Slew rate: tail current into the slew-limiting capacitance.
	p.SRVus = tb.tail.Op(dc.X).ID / tb.slewCap.C / 1e6 // V/µs
	p.PowerMW = math.Abs(dc.BranchCurrent(tb.vddSrc.Branch())) * tb.vdd * 1e3
	if need == measureDC {
		return p, true
	}

	// Open-loop differential response: drive the non-inverting input,
	// hold the inverting input at AC ground through the loop-break.
	tb.drive.AC = 1
	tb.fb.ACMode = spice.VCVSACFixed
	tb.fb.ACValue = 0
	points := 1
	if need == measureFull {
		points = 0 // the whole grid
	}
	bode, err := tb.ckt.ACSweepHead(dc, tb.out, fStart, fStop, 8, points)
	if err != nil {
		return failedPerf(), false
	}
	a0 := bode.DCGainDB()
	if need == measureFull {
		ftHz, _, okFt := bode.UnityCrossing()
		pm, okPM := bode.PhaseMarginDeg()
		if !okFt || !okPM {
			// No unity crossing: the gain is below 0 dB from the start.
			// Keep the reported ft graded (→ 0 as the gain collapses,
			// continuous at the 0 dB boundary) so optimizer gradients stay
			// informative instead of hitting a hard cliff.
			ftHz = fStart * math.Pow(10, math.Min(a0, 0)/20)
			pm = 0
		}
		p.FtMHz, p.PMdeg = ftHz/1e6, pm
	}
	p.A0dB = a0
	if need == measureGain {
		return p, true
	}

	// Common-mode response at the lowest frequency: both inputs driven.
	tb.fb.ACValue = 1
	acCM, err := tb.ckt.ACNode(dc, 2*math.Pi*fStart, tb.out)
	if err != nil {
		return failedPerf(), false
	}
	acmMag := cmplxAbs(acCM)
	p.CMRRdB = a0 - 20*math.Log10(math.Max(acmMag, 1e-12))
	return p, true
}

func cmplxAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

// constraints solves the bench's DC operating point and emits its sizing
// constraints, or the failure penalty when the solve fails.
func (tb *testbench) constraints() []float64 {
	dc, err := tb.ckt.DC(tb.dcOpts)
	if err != nil {
		return failedConstraints(2 * len(tb.mosfets))
	}
	return mosConstraints(tb.mosfets, dc.X)
}

// mosConstraints emits the functional sizing constraints for a converged
// DC point: every transistor saturated with margin and conducting with a
// minimum gate overdrive. These are the technology-dependent "sizing
// rules" of the paper's Sec. 5.1 (ref. [13]).
func mosConstraints(mosfets []*spice.Mosfet, x []float64) []float64 {
	const (
		satMargin = 0.05 // required VDS − Vov headroom [V]
		vonMargin = 0.03 // required gate overdrive [V]
	)
	out := make([]float64, 0, 2*len(mosfets))
	for _, m := range mosfets {
		op := m.Op(x)
		out = append(out, op.SatMargin-satMargin, op.Vov-vonMargin)
	}
	return out
}

// mosConstraintNames matches mosConstraints ordering.
func mosConstraintNames(mosfets []*spice.Mosfet) []string {
	names := make([]string, 0, 2*len(mosfets))
	for _, m := range mosfets {
		names = append(names, m.Name()+".sat", m.Name()+".von")
	}
	return names
}

// failedConstraints is the penalty constraint vector for designs whose
// operating point cannot be computed at all.
func failedConstraints(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = -1e3
	}
	return out
}
