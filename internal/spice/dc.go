package spice

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"specwise/internal/linalg"
)

// DCStats accumulates solver-effort counters across DC solves. One
// instance may be shared by many circuits; it is safe for concurrent use.
type DCStats struct {
	// WarmStarts counts solves given an InitialX guess.
	WarmStarts atomic.Int64
	// WarmConverged counts warm-started solves whose plain Newton attempt
	// converged directly, skipping the homotopy ladder.
	WarmConverged atomic.Int64
	// Fallbacks counts solves that entered gmin/source stepping after the
	// plain Newton attempt failed.
	Fallbacks atomic.Int64
	// NewtonIters counts Newton iterations summed over all attempts.
	NewtonIters atomic.Int64
}

// DCOptions tunes the Newton–Raphson operating-point solver.
type DCOptions struct {
	MaxIter  int           // Newton iterations per attempt (default 150)
	VTol     float64       // voltage update tolerance [V] (default 1e-9)
	ResTol   float64       // KCL residual tolerance [A] (default 1e-9)
	Gmin     float64       // baseline node-to-ground leak [S] (default 1e-12)
	MaxStep  float64       // per-iteration voltage damping limit [V] (default 0.5)
	InitialX linalg.Vector // optional warm start (length NumVars)
	Stats    *DCStats      // optional effort counters, shared across solves
}

func (o *DCOptions) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 150
	}
	if o.VTol == 0 {
		o.VTol = 1e-9
	}
	if o.ResTol == 0 {
		o.ResTol = 1e-9
	}
	if o.Gmin == 0 {
		o.Gmin = 1e-12
	}
	if o.MaxStep == 0 {
		o.MaxStep = 0.5
	}
}

// ErrNoConvergence reports that all DC homotopies failed.
var ErrNoConvergence = errors.New("spice: DC analysis failed to converge")

// DCResult holds a converged operating point.
type DCResult struct {
	// X is the full MNA solution: node voltages then branch currents.
	X linalg.Vector
	// Iterations counts Newton steps summed over homotopy stages.
	Iterations int
	circuit    *Circuit
}

// Voltage returns the DC voltage of a node index (0 for ground).
func (r *DCResult) Voltage(node int) float64 { return volt(r.X, node) }

// BranchCurrent returns the current of an MNA branch variable.
func (r *DCResult) BranchCurrent(branch int) float64 { return r.X[branch] }

// DC computes the operating point. When DCOptions.InitialX supplies a
// previous operating point, plain Newton starts there; otherwise it starts
// from zero. On non-convergence the solve falls back to a gmin-stepping
// homotopy and then source stepping (both restarting from zero, so the
// fallback is independent of the guess), mirroring the fallback ladder of
// production simulators.
func (c *Circuit) DC(opts DCOptions) (*DCResult, error) {
	opts.defaults()
	c.finalize()
	n := c.NumVars()
	w := c.dcScratch(n)
	w.lastFactorErr = nil
	if st := c.SolverStats; st != nil {
		start := time.Now()
		defer func() { st.DCNanos.Add(time.Since(start).Nanoseconds()) }()
	}
	defer func() { c.flushSolverStats(w.solver.Stats(), &w.prev) }()
	x := linalg.NewVector(n)
	warm := opts.InitialX != nil
	if warm {
		if len(opts.InitialX) != n {
			return nil, fmt.Errorf("spice: warm start length %d, want %d", len(opts.InitialX), n)
		}
		copy(x, opts.InitialX)
		if opts.Stats != nil {
			opts.Stats.WarmStarts.Add(1)
		}
	}

	total := 0
	defer func() {
		if opts.Stats != nil {
			opts.Stats.NewtonIters.Add(int64(total))
		}
	}()
	// Attempt 1: plain Newton at the target gmin.
	if it, ok := c.newton(x, opts, opts.Gmin, 1); ok {
		total += it
		if warm && opts.Stats != nil {
			opts.Stats.WarmConverged.Add(1)
		}
		return &DCResult{X: x, Iterations: it, circuit: c}, nil
	} else {
		total += it
	}
	if opts.Stats != nil {
		opts.Stats.Fallbacks.Add(1)
	}

	// Attempt 2: gmin stepping from a strongly damped system.
	x.Zero()
	gmin := 1e-2
	ok := true
	for gmin >= opts.Gmin {
		it, conv := c.newton(x, opts, gmin, 1)
		total += it
		if !conv {
			ok = false
			break
		}
		gmin /= 10
	}
	if ok {
		it, conv := c.newton(x, opts, opts.Gmin, 1)
		total += it
		if conv {
			return &DCResult{X: x, Iterations: total, circuit: c}, nil
		}
	}

	// Attempt 3: source stepping with a mild gmin floor.
	x.Zero()
	scale := 0.0
	step := 0.1
	for scale < 1 {
		next := math.Min(1, scale+step)
		saved := x.Clone()
		it, conv := c.newton(x, opts, opts.Gmin*100, next)
		total += it
		if conv {
			scale = next
			if step < 0.25 {
				step *= 2
			}
			continue
		}
		copy(x, saved)
		step /= 2
		if step < 1e-4 {
			return nil, c.dcFailure(fmt.Errorf("%w (source stepping stalled at scale %.4f)", ErrNoConvergence, scale))
		}
	}
	it, conv := c.newton(x, opts, opts.Gmin, 1)
	total += it
	if conv {
		return &DCResult{X: x, Iterations: total, circuit: c}, nil
	}
	return nil, c.dcFailure(ErrNoConvergence)
}

// dcFailure attaches the last factorization failure (if any) to a DC
// non-convergence error, naming the MNA variable whose pivot vanished.
func (c *Circuit) dcFailure(err error) error {
	if fe := c.scratch.lastFactorErr; fe != nil {
		return fmt.Errorf("%w: %v", err, c.describeSolverErr(fe))
	}
	return err
}

// newton runs damped Newton iterations in place on x. It reports the
// number of iterations used and whether the run converged. The solver
// backend, residual and update vector live in the circuit's scratch
// space and are reused across iterations and attempts — the sparse
// backend additionally reuses its symbolic factorization, so every
// iteration after the first is a numeric-only refactorization.
func (c *Circuit) newton(x linalg.Vector, opts DCOptions, gmin, srcScale float64) (int, bool) {
	n := c.NumVars()
	nodes := c.NumNodes()
	w := c.dcScratch(n)
	sol, res, dx := w.solver, w.res, w.dx
	ctx := &stampCtx{srcScale: srcScale, gmin: gmin}

	for iter := 1; iter <= opts.MaxIter; iter++ {
		sol.Reset()
		res.Zero()
		for _, d := range c.devices {
			d.StampDC(sol, res, x, ctx)
		}
		// Node leak conductances stabilize floating or cut-off nodes.
		for i := 0; i < nodes; i++ {
			sol.Addto(i, i, gmin)
			res[i] += gmin * x[i]
		}

		if err := sol.Factor(); err != nil {
			w.lastFactorErr = err
			return iter, false
		}
		if err := sol.SolveInto(dx, res); err != nil {
			w.lastFactorErr = err
			return iter, false
		}

		// Damped update with per-variable step limiting on voltages.
		maxdv := 0.0
		for i := 0; i < nodes; i++ {
			if a := math.Abs(dx[i]); a > maxdv {
				maxdv = a
			}
		}
		alpha := 1.0
		if maxdv > opts.MaxStep {
			alpha = opts.MaxStep / maxdv
		}
		for i := 0; i < n; i++ {
			x[i] -= alpha * dx[i]
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				return iter, false
			}
		}

		resNorm := res[:nodes].NormInf()
		if alpha == 1 && maxdv < opts.VTol && resNorm < opts.ResTol {
			return iter, true
		}
	}
	return opts.MaxIter, false
}

// DCSweepResult holds a swept operating-point analysis.
type DCSweepResult struct {
	Values []float64       // swept source values
	X      []linalg.Vector // full MNA solution per point
}

// Voltage returns one node's transfer curve over the sweep.
func (r *DCSweepResult) Voltage(node int) []float64 {
	out := make([]float64, len(r.X))
	for k, x := range r.X {
		out[k] = volt(x, node)
	}
	return out
}

// DCSweep steps the DC value of a voltage source from start to stop in n
// points, warm-starting each solve from the previous solution — the
// natural continuation for transfer-curve extraction. The source's DC
// value is restored afterwards. n must lie in [2, MaxSweepPoints].
func (c *Circuit) DCSweep(src *VSource, start, stop float64, n int, opts DCOptions) (*DCSweepResult, error) {
	if n < 2 {
		return nil, fmt.Errorf("spice: DC sweep needs at least 2 points")
	}
	if n > MaxSweepPoints {
		return nil, fmt.Errorf("spice: DC sweep of %d points, over the cap of %d", n, MaxSweepPoints)
	}
	saved := src.DC
	defer func() { src.DC = saved }()

	res := &DCSweepResult{
		Values: make([]float64, 0, n),
		X:      make([]linalg.Vector, 0, n),
	}
	var warm linalg.Vector
	for k := 0; k < n; k++ {
		v := start + (stop-start)*float64(k)/float64(n-1)
		src.DC = v
		o := opts
		o.InitialX = warm
		dc, err := c.DC(o)
		if err != nil {
			return nil, fmt.Errorf("spice: DC sweep failed at %s=%g: %w", src.Name(), v, err)
		}
		warm = dc.X
		res.Values = append(res.Values, v)
		res.X = append(res.X, dc.X.Clone())
	}
	return res, nil
}
