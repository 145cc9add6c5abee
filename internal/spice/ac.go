package spice

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"time"

	"specwise/internal/linalg"
	"specwise/internal/sched"
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
	c.finalize()
	n := c.NumVars()
	w := c.acScratch(n)
	if st := c.SolverStats; st != nil {
		start := time.Now()
		defer func() { st.ACNanos.Add(time.Since(start).Nanoseconds()) }()
	}
	defer func() { c.flushSolverStats(w.acSolver.Stats(), &w.acPrev) }()
	c.acAssemble(w, dc, omega)
	sol := w.acSolver
	if err := sol.Factor(); err != nil {
		return nil, fmt.Errorf("spice: AC solve at ω=%g: %w", omega, c.describeSolverErr(err))
	}
	x := make([]complex128, n)
	if err := sol.SolveInto(x, w.acB); err != nil {
		return nil, fmt.Errorf("spice: AC solve at ω=%g: %w", omega, err)
	}
	return &ACResult{Omega: omega, X: x}, nil
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

// workspaceCSolver is the further capability the fanned-out sweep
// needs: per-goroutine numeric workspaces sharing the solver's symbolic
// factorization, plus a way to fold their effort counters back.
type workspaceCSolver interface {
	affineCSolver
	Factor() error
	BindWorkspace(*linalg.SparseComplexWorkspace) (*linalg.SparseComplexWorkspace, error)
	Absorb(linalg.SolverStats)
}

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

// ACSweepHead runs only the first n points of ACSweep's frequency grid
// (the whole grid when n <= 0 or n exceeds it). Every returned sample is
// bit-identical to the same sample of the full sweep: the grid, the
// affine value reload and the per-point factor/solve sequence do not
// depend on how many points run. A measurement that needs only the
// low-frequency gain asks for one point.
func (c *Circuit) ACSweepHead(dc *DCResult, node int, fStart, fStop float64, pointsPerDecade, n int) (*Bode, error) {
	if fStart <= 0 || fStop <= fStart || pointsPerDecade < 1 {
		return nil, fmt.Errorf("spice: invalid sweep [%g, %g] @ %d/dec", fStart, fStop, pointsPerDecade)
	}
	decades := math.Log10(fStop / fStart)
	npts := int(math.Ceil(decades*float64(pointsPerDecade))) + 1
	if n <= 0 || n > npts {
		n = npts
	}
	b := &Bode{Freq: make([]float64, n), H: make([]complex128, n)}

	c.finalize()
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
	if len(w.acX) != nv {
		w.acX = make([]complex128, nv)
	}
	if affOK {
		// Fast path: every point is LoadValues → refactor → solve over
		// one shared symbolic factorization, fanned over numeric
		// workspaces. Falls through to the serial loop when the backend
		// lacks workspace support (dense).
		if wsol, ok := sol.(workspaceCSolver); ok {
			done, err := c.acSweepShared(w, wsol, b, node, fStart, decades, npts, n)
			if done {
				return b, err
			}
		}
	}
	for i := 0; i < n; i++ {
		f := fStart * math.Pow(10, decades*float64(i)/float64(npts-1))
		omega := 2 * math.Pi * f
		if !affOK || !aff.LoadValues(w.affBase, w.affSlope, omega) {
			c.acAssemble(w, dc, omega)
		}
		if err := sol.Factor(); err != nil {
			return nil, fmt.Errorf("spice: AC solve at ω=%g: %w", omega, c.describeSolverErr(err))
		}
		if err := sol.SolveInto(w.acX, w.acB); err != nil {
			return nil, fmt.Errorf("spice: AC solve at ω=%g: %w", omega, err)
		}
		b.Freq[i] = f
		b.H[i] = cvolt(w.acX, node)
	}
	return b, nil
}

// acSweepShared runs the first n of the sweep's npts frequency points
// through per-goroutine numeric workspaces over one shared symbolic
// factorization. Every point executes the identical LoadValues →
// refactor → solve sequence in its own workspace and writes its result
// by index, so the Bode response is bit-identical however many workers
// run. done reports whether the sweep was handled here; when false the
// caller's serial loop takes over from scratch.
func (c *Circuit) acSweepShared(w *solverScratch, sol workspaceCSolver, b *Bode, node int, fStart, decades float64, npts, n int) (done bool, err error) {
	// Factor at the first point to establish current factors for the
	// workspaces to share.
	omega0 := 2 * math.Pi * fStart
	if !sol.LoadValues(w.affBase, w.affSlope, omega0) {
		return false, nil
	}
	if err := sol.Factor(); err != nil {
		return true, fmt.Errorf("spice: AC solve at ω=%g: %w", omega0, c.describeSolverErr(err))
	}
	// Each worker binds its kept slot to the current symbolic on its
	// first point: the workspace counters start from zero, so every
	// Absorb below folds in this sweep's work only.
	sch := sched.Default()
	for len(w.sweep) < sch.Workers(n) {
		w.sweep = append(w.sweep, sweepSlot{})
	}
	slots := w.sweep[:sch.Workers(n)]
	if slots[0].bind(sol, len(w.acX)) != nil {
		return false, nil
	}
	// Points run on the process-wide scheduler's caller-runs loop, are
	// claimed in ascending order and are written by index, so the
	// response is bit-identical however many workers join.
	var fail struct {
		sync.Mutex
		err error
		at  int
	}
	sch.For(n, func(k, i int) bool {
		sl := &slots[k]
		if !sl.bound {
			_ = sl.bind(sol, len(w.acX)) // cannot fail: slot 0 bound to the same factors
		}
		f := fStart * math.Pow(10, decades*float64(i)/float64(npts-1))
		err := sl.solve(c, w, 2*math.Pi*f)
		if err == nil {
			b.Freq[i] = f
			b.H[i] = cvolt(sl.x, node)
			return true
		}
		// Keep the failure at the lowest point index, matching what a
		// serial sweep would have surfaced first. Claims ascend, so the
		// lowest failing point is always claimed before any worker could
		// have stopped because of it.
		fail.Lock()
		if fail.err == nil || i < fail.at {
			fail.err, fail.at = err, i
		}
		fail.Unlock()
		return false
	})
	for k := range slots {
		if slots[k].bound {
			sol.Absorb(slots[k].ws.Stats())
			slots[k].bound = false
		}
	}
	return true, fail.err
}

// bind points the slot's workspace at sol's current factors, resetting
// its counters, and sizes its solution vector to nx.
func (sl *sweepSlot) bind(sol workspaceCSolver, nx int) error {
	ws, err := sol.BindWorkspace(sl.ws)
	sl.ws, sl.bound = ws, err == nil
	if len(sl.x) != nx {
		sl.x = make([]complex128, nx)
	}
	return err
}

// solve runs one sweep point at angular frequency omega through the
// slot's workspace, leaving the solution in sl.x.
func (sl *sweepSlot) solve(c *Circuit, w *solverScratch, omega float64) error {
	if !sl.ws.LoadValues(w.affBase, w.affSlope, omega) {
		return fmt.Errorf("spice: AC sweep workspace rejected values at ω=%g", omega)
	}
	if err := sl.ws.Factor(); err != nil {
		return fmt.Errorf("spice: AC solve at ω=%g: %w", omega, c.describeSolverErr(err))
	}
	if err := sl.ws.SolveInto(sl.x, w.acB); err != nil {
		return fmt.Errorf("spice: AC solve at ω=%g: %w", omega, err)
	}
	return nil
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
