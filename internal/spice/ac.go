package spice

import (
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"specwise/internal/linalg"
)

// ACResult is the small-signal solution at one angular frequency.
type ACResult struct {
	Omega float64
	X     []complex128
}

// Voltage returns the complex node voltage (0 for ground).
func (r *ACResult) Voltage(node int) complex128 { return cvolt(r.X, node) }

// AC solves the small-signal system (G + jωC)·x = b linearized at the
// given DC operating point. The assembly structure and factorization
// workspace live in the circuit's scratch space and are reused across
// frequency points — with the sparse backend, every point after the
// first is a numeric refactorization over the fixed (G + jωC) pattern.
// The returned solution is freshly allocated and stays valid across
// calls.
func (c *Circuit) AC(dc *DCResult, omega float64) (*ACResult, error) {
	var x []complex128
	err := c.acPoint(dc, omega, func(sol linalg.ComplexSolver, b []complex128) error {
		x = make([]complex128, len(b))
		return sol.SolveInto(x, b)
	})
	if err != nil {
		return nil, err
	}
	return &ACResult{Omega: omega, X: x}, nil
}

// nodeCSolver is the optional backend capability ACNode exploits: a
// solve that stops once one solution entry is known.
type nodeCSolver interface {
	SolveNode(b []complex128, node int) (complex128, error)
}

// ACNode is AC observing one node: it returns AC(dc, omega)'s voltage of
// node, bit-identical and with the same solver counters, but allocates
// no solution vector and, on the sparse backend, stops the backward
// substitution once that voltage is known.
func (c *Circuit) ACNode(dc *DCResult, omega float64, node int) (complex128, error) {
	var v complex128
	err := c.acPoint(dc, omega, func(sol linalg.ComplexSolver, b []complex128) error {
		if ns, ok := sol.(nodeCSolver); ok && node != groundIndex {
			var err error
			v, err = ns.SolveNode(b, node)
			return err
		}
		w := &c.scratch
		if len(w.acX) != len(b) {
			w.acX = make([]complex128, len(b))
		}
		if err := sol.SolveInto(w.acX, b); err != nil {
			return err
		}
		v = cvolt(w.acX, node)
		return nil
	})
	return v, err
}

// acPoint is one AC analysis at omega: it assembles and factors the
// small-signal system in the circuit's scratch, then hands the factored
// solver and the right-hand side to solve, under the analysis' timing
// and solver-counter bookkeeping.
func (c *Circuit) acPoint(dc *DCResult, omega float64, solve func(linalg.ComplexSolver, []complex128) error) error {
	c.finalize()
	w := c.acScratch(c.NumVars())
	if st := c.SolverStats; st != nil {
		start := time.Now()
		defer func() { st.ACNanos.Add(time.Since(start).Nanoseconds()) }()
	}
	defer func() { c.flushSolverStats(w.acSolver.Stats(), &w.acPrev) }()
	c.acAssemble(w, dc, omega)
	if err := w.acSolver.Factor(); err != nil {
		return fmt.Errorf("spice: AC solve at ω=%g: %w", omega, c.describeSolverErr(err))
	}
	if err := solve(w.acSolver, w.acB); err != nil {
		return fmt.Errorf("spice: AC solve at ω=%g: %w", omega, err)
	}
	return nil
}

// acAssemble stamps the full small-signal system at omega into the AC
// scratch: matrix into w.acSolver, right-hand side into w.acB.
func (c *Circuit) acAssemble(w *solverScratch, dc *DCResult, omega float64) {
	sol, b := w.acSolver, w.acB
	sol.Reset()
	for i := range b {
		b[i] = 0
	}
	for _, d := range c.devices {
		d.StampAC(sol, b, omega, dc.X)
	}
	// The same gmin leak as DC keeps the AC matrix nonsingular when
	// devices are cut off.
	for i := 0; i < c.NumNodes(); i++ {
		sol.Addto(i, i, complex(1e-12, 0))
	}
}

// affineCSolver is the optional backend capability ACSweep exploits:
// every AC stamp has the form g + jω·c and the right-hand side is
// frequency-independent, so the assembled system is affine in ω. A
// backend exposing value capture/reload lets the sweep assemble twice
// (at ω=0 and ω=1) and re-materialize the matrix at every further
// frequency with one linear pass over the stored values.
type affineCSolver interface {
	CaptureValues(dst []complex128) []complex128
	LoadValues(base, slope []complex128, t float64) bool
}

// workspaceCSolver is the further capability the block sweep needs: a
// numeric workspace sharing the solver's symbolic factorization, plus a
// way to fold its effort counters back.
type workspaceCSolver interface {
	affineCSolver
	Factor() error
	BindWorkspace(*linalg.SparseComplexWorkspace) (*linalg.SparseComplexWorkspace, error)
	Absorb(linalg.SolverStats)
}

// acBlock is the number of sweep points the workspace refactors and
// solves together. No result depends on it, since every point's
// arithmetic is its own.
const acBlock = 8

// Bode is a sampled frequency response H(f) of one observed node.
type Bode struct {
	Freq []float64    // Hz, ascending
	H    []complex128 // response samples

	magDB    []float64 // lazy MagDB cache
	phaseDeg []float64 // lazy unwrapped-phase cache
}

// ACSweep runs AC analyses over logarithmically spaced frequencies from
// fStart to fStop (Hz) with pointsPerDecade samples per decade, observing
// the voltage of the given node.
func (c *Circuit) ACSweep(dc *DCResult, node int, fStart, fStop float64, pointsPerDecade int) (*Bode, error) {
	return c.ACSweepHead(dc, node, fStart, fStop, pointsPerDecade, 0)
}

// MaxSweepPoints caps the points of an AC sweep's frequency grid and of
// a DC sweep. Each point costs a slice entry and a factor-and-solve, so
// a sweep over the cap is refused instead of allocated; 65,536 points
// cover every finite float64 range at 100 points per decade.
const MaxSweepPoints = 1 << 16

// SweepPoints returns the number of points of the logarithmic grid
// ACSweep runs from fStart to fStop (Hz) at pointsPerDecade. It refuses
// bounds that are NaN, not positive or not increasing, and a grid that
// is not finite (fStop/fStart overflows) or has more than
// MaxSweepPoints points.
func SweepPoints(fStart, fStop float64, pointsPerDecade int) (int, error) {
	if !(fStart > 0) || !(fStop > fStart) || pointsPerDecade < 1 {
		return 0, fmt.Errorf("spice: invalid sweep [%g, %g] @ %d/dec", fStart, fStop, pointsPerDecade)
	}
	span := math.Ceil(math.Log10(fStop/fStart) * float64(pointsPerDecade))
	if !(span < MaxSweepPoints) {
		return 0, fmt.Errorf("spice: sweep [%g, %g] @ %d/dec needs %g points, over the cap of %d",
			fStart, fStop, pointsPerDecade, span+1, MaxSweepPoints)
	}
	return int(span) + 1, nil
}

// sweepGrid returns the sweep's frequency grid in Hz and rad/s, cached
// on the circuit scratch: an evaluation flow sweeps the same grid on
// every call, so the logarithmic spacing is computed once per circuit.
// Only a valid grid (SweepPoints) is ever cached.
func (c *Circuit) sweepGrid(fStart, fStop float64, pointsPerDecade int) (*freqGrid, error) {
	g := &c.scratch.grid
	if g.freq != nil && g.fStart == fStart && g.fStop == fStop && g.perDecade == pointsPerDecade {
		return g, nil
	}
	npts, err := SweepPoints(fStart, fStop, pointsPerDecade)
	if err != nil {
		return nil, err
	}
	decades := math.Log10(fStop / fStart)
	*g = freqGrid{
		fStart: fStart, fStop: fStop, perDecade: pointsPerDecade,
		freq:  make([]float64, npts),
		omega: make([]float64, npts),
	}
	for i := range g.freq {
		f := fStart * math.Pow(10, decades*float64(i)/float64(npts-1))
		g.freq[i], g.omega[i] = f, 2*math.Pi*f
	}
	return g, nil
}

// ACSweepHead runs only the first n points of ACSweep's frequency grid
// (the whole grid when n <= 0 or n exceeds it). Every returned sample is
// bit-identical to the same sample of the full sweep: the grid, the
// affine value reload and each point's factor/solve arithmetic do not
// depend on how many points run. A measurement that needs only the
// low-frequency gain asks for one point. An invalid grid (see
// SweepPoints) is an error.
func (c *Circuit) ACSweepHead(dc *DCResult, node int, fStart, fStop float64, pointsPerDecade, n int) (*Bode, error) {
	grid, err := c.sweepGrid(fStart, fStop, pointsPerDecade)
	if err != nil {
		return nil, err
	}
	c.finalize()
	if npts := len(grid.freq); n <= 0 || n > npts {
		n = npts
	}
	b := &Bode{Freq: make([]float64, n), H: make([]complex128, n)}
	copy(b.Freq, grid.freq)
	omega := grid.omega[:n]

	nv := c.NumVars()
	w := c.acScratch(nv)
	if st := c.SolverStats; st != nil {
		start := time.Now()
		defer func() { st.ACNanos.Add(time.Since(start).Nanoseconds()) }()
	}
	defer func() { c.flushSolverStats(w.acSolver.Stats(), &w.acPrev) }()
	sol := w.acSolver

	// The small-signal system is affine in ω (every stamp is g + jω·c,
	// the RHS is frequency-independent), so when the backend supports
	// value capture we stamp only twice — at ω=0 and ω=1 — and rebuild
	// the values at each sweep point with one pass over the snapshot.
	aff, affOK := sol.(affineCSolver)
	if affOK {
		c.acAssemble(w, dc, 0)
		w.affBase = aff.CaptureValues(w.affBase)
		c.acAssemble(w, dc, 1)
		w.affSlope = aff.CaptureValues(w.affSlope)
		if len(w.affSlope) == len(w.affBase) {
			for k := range w.affSlope {
				w.affSlope[k] -= w.affBase[k]
			}
		} else {
			affOK = false // structure changed between probes; restamp per point
		}
	}
	if wsol, ok := sol.(workspaceCSolver); ok && affOK {
		if done, err := c.acSweepBlocks(w, wsol, b, node, omega); done {
			return b, err
		}
	}
	// Backends without workspaces (dense), and systems that are not
	// affine in ω, run the points one by one through the solver itself.
	if len(w.acX) != nv {
		w.acX = make([]complex128, nv)
	}
	for i, om := range omega {
		if !affOK || !aff.LoadValues(w.affBase, w.affSlope, om) {
			c.acAssemble(w, dc, om)
		}
		if err := sol.Factor(); err != nil {
			return nil, fmt.Errorf("spice: AC solve at ω=%g: %w", om, c.describeSolverErr(err))
		}
		if err := sol.SolveInto(w.acX, w.acB); err != nil {
			return nil, fmt.Errorf("spice: AC solve at ω=%g: %w", om, err)
		}
		b.H[i] = cvolt(w.acX, node)
	}
	return b, nil
}

// acSweepBlocks runs the sweep points omega in blocks of acBlock
// through the circuit's kept numeric workspace, bound to the solver's
// symbolic factorization, writing only the observed node's response.
// Every point executes its own refactor and solve arithmetic whatever
// block it lands in, so the response and the solver counters are
// bit-identical to a point-by-point sweep; a failing point ends the
// sweep with the counters of the points up to it. done reports whether
// the sweep was handled here; when false the caller's per-point loop
// takes over from scratch.
func (c *Circuit) acSweepBlocks(w *solverScratch, sol workspaceCSolver, b *Bode, node int, omega []float64) (done bool, err error) {
	// Factor at the first point to establish the symbolic factorization
	// the workspace replays.
	if !sol.LoadValues(w.affBase, w.affSlope, omega[0]) {
		return false, nil
	}
	if err := sol.Factor(); err != nil {
		return true, fmt.Errorf("spice: AC solve at ω=%g: %w", omega[0], c.describeSolverErr(err))
	}
	ws, err := sol.BindWorkspace(w.sweepWS)
	if err != nil {
		return false, nil
	}
	w.sweepWS = ws
	// The ground node reads 0; the workspace still solves (for node 0)
	// so the counters match any other observed node's.
	obs := max(node, 0)
	for lo := 0; lo < len(omega); lo += acBlock {
		hi := min(lo+acBlock, len(omega))
		solved, st, err := ws.SolveNodes(w.affBase, w.affSlope, omega[lo:hi], w.acB, obs, b.H[lo:hi])
		sol.Absorb(st)
		if err != nil {
			return true, fmt.Errorf("spice: AC solve at ω=%g: %w", omega[lo+solved], c.describeSolverErr(err))
		}
	}
	if node == groundIndex {
		clear(b.H)
	}
	return true, nil
}

// mags returns the lazily built magnitude cache.
func (b *Bode) mags() []float64 {
	if b.magDB == nil {
		b.magDB = make([]float64, len(b.H))
		for i, h := range b.H {
			b.magDB[i] = 20 * math.Log10(cmplx.Abs(h))
		}
	}
	return b.magDB
}

// MagDB returns the magnitude in dB at sample i.
func (b *Bode) MagDB(i int) float64 { return b.mags()[i] }

// phases returns the lazily built unwrapped-phase cache: one pass
// unwraps the whole response, so callers like UnityCrossing that probe
// many samples stay O(n) instead of re-unwrapping from sample 0 per
// probe.
func (b *Bode) phases() []float64 {
	if b.phaseDeg == nil && len(b.H) > 0 {
		ph := make([]float64, len(b.H))
		phase := cmplx.Phase(b.H[0])
		ph[0] = phase * 180 / math.Pi
		for k := 1; k < len(b.H); k++ {
			p := cmplx.Phase(b.H[k])
			for p-phase > math.Pi {
				p -= 2 * math.Pi
			}
			for p-phase < -math.Pi {
				p += 2 * math.Pi
			}
			phase = p
			ph[k] = phase * 180 / math.Pi
		}
		b.phaseDeg = ph
	}
	return b.phaseDeg
}

// PhaseDeg returns the unwrapped phase in degrees at sample i, unwrapping
// from sample 0 so a multi-pole roll-off stays monotone.
func (b *Bode) PhaseDeg(i int) float64 { return b.phases()[i] }

// DCGainDB returns the magnitude of the first (lowest-frequency) sample.
func (b *Bode) DCGainDB() float64 { return b.MagDB(0) }

// UnityCrossing returns the frequency where |H| falls through 1 and the
// interpolated phase (degrees) at that frequency. ok is false when the
// response never crosses unity within the sweep.
func (b *Bode) UnityCrossing() (freq, phaseDeg float64, ok bool) {
	if len(b.Freq) == 0 || cmplx.Abs(b.H[0]) <= 1 {
		return 0, 0, false
	}
	for i := 1; i < len(b.Freq); i++ {
		m0 := b.MagDB(i - 1)
		m1 := b.MagDB(i)
		if m1 > 0 {
			continue
		}
		// Interpolate in log-frequency where magnitude crosses 0 dB.
		t := 0.0
		if m0 != m1 {
			t = m0 / (m0 - m1)
		}
		lf := math.Log10(b.Freq[i-1]) + t*(math.Log10(b.Freq[i])-math.Log10(b.Freq[i-1]))
		p0 := b.PhaseDeg(i - 1)
		p1 := b.PhaseDeg(i)
		return math.Pow(10, lf), p0 + t*(p1-p0), true
	}
	return 0, 0, false
}

// PhaseMarginDeg returns the phase margin 180° + ∠H(f_unity) of an
// inverting-or-not open-loop response, normalizing the DC phase so both
// polarities report the conventional margin. ok is false without a
// unity crossing.
func (b *Bode) PhaseMarginDeg() (pm float64, ok bool) {
	_, phase, ok := b.UnityCrossing()
	if !ok {
		return 0, false
	}
	// Reference the phase to the low-frequency phase so that an
	// inverting path (DC phase ±180°) and a non-inverting path (0°)
	// produce the same margin convention.
	dcPhase := b.PhaseDeg(0)
	return 180 + (phase - dcPhase), true
}
