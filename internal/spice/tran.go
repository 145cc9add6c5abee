package spice

import (
	"errors"
	"fmt"
	"math"
	"time"

	"specwise/internal/linalg"
)

// TranOptions configures a transient analysis.
type TranOptions struct {
	Stop    float64       // simulation end time [s]
	Step    float64       // fixed time step [s]
	Initial linalg.Vector // starting state; nil = compute the DC point
	// MaxNewton bounds the Newton iterations per time point (default 60).
	MaxNewton int
	// Theta selects the integration method: 1 = backward Euler,
	// 0.5 = trapezoidal (default).
	Theta float64
}

// MaxTranSteps caps the time points of a transient analysis. Each point
// keeps a copy of the full solution, so a run over the cap is refused
// instead of allocated.
const MaxTranSteps = 1 << 20

func (o *TranOptions) defaults() error {
	if !(o.Stop > 0) || !(o.Step > 0) {
		return errors.New("spice: transient Stop and Step must be positive")
	}
	// Not finite (an infinite Stop) fails the comparison too.
	if steps := math.Ceil(o.Stop / o.Step); !(steps <= MaxTranSteps) {
		return fmt.Errorf("spice: transient to %g s in %g s steps needs %g steps, over the cap of %d",
			o.Stop, o.Step, steps, MaxTranSteps)
	}
	if o.MaxNewton == 0 {
		o.MaxNewton = 60
	}
	if o.Theta == 0 {
		o.Theta = 0.5
	}
	if o.Theta < 0.5 || o.Theta > 1 {
		return errors.New("spice: integration theta must be in [0.5, 1]")
	}
	return nil
}

// TranResult is a sampled transient waveform set.
type TranResult struct {
	Time []float64
	// X[k] is the full MNA solution at Time[k].
	X []linalg.Vector
}

// Voltage returns the waveform of one node.
func (r *TranResult) Voltage(node int) []float64 {
	out := make([]float64, len(r.X))
	for k, x := range r.X {
		out[k] = volt(x, node)
	}
	return out
}

// At returns the node voltage at the sample nearest to time t.
func (r *TranResult) At(node int, t float64) float64 {
	if len(r.Time) == 0 {
		return 0
	}
	best, bd := 0, math.Inf(1)
	for k, tt := range r.Time {
		if d := math.Abs(tt - t); d < bd {
			best, bd = k, d
		}
	}
	return volt(r.X[best], node)
}

// tranDevice is implemented by devices with time-dependent behaviour
// (capacitor companion models, time-varying sources).
type tranDevice interface {
	// StampTran adds the device's contribution at the new time point.
	// dt is the step, xPrev the converged previous-state solution, and
	// tNow the new absolute time.
	StampTran(jac linalg.Stamper, res linalg.Vector, x, xPrev linalg.Vector, dt, tNow, theta float64)
}

// StampTran implements tranDevice for capacitors using a theta-method
// companion model: i = C/(θ·dt)·(v − v_prev) − (1−θ)/θ·i_prev.
func (c *Capacitor) StampTran(jac linalg.Stamper, res linalg.Vector, x, xPrev linalg.Vector, dt, _ float64, theta float64) {
	geq := c.C / (theta * dt)
	vNow := volt(x, c.P) - volt(x, c.N)
	vPrev := volt(xPrev, c.P) - volt(xPrev, c.N)
	iPrev := c.iPrev
	i := geq*(vNow-vPrev) - (1-theta)/theta*iPrev

	addJac(jac, c.P, c.P, geq)
	addJac(jac, c.N, c.N, geq)
	addJac(jac, c.P, c.N, -geq)
	addJac(jac, c.N, c.P, -geq)
	addRes(res, c.P, i)
	addRes(res, c.N, -i)
}

// commitTran lets stateful devices record their converged branch state.
func (c *Capacitor) commitTran(x, xPrev linalg.Vector, dt, theta float64) {
	geq := c.C / (theta * dt)
	vNow := volt(x, c.P) - volt(x, c.N)
	vPrev := volt(xPrev, c.P) - volt(xPrev, c.N)
	c.iPrev = geq*(vNow-vPrev) - (1-theta)/theta*c.iPrev
}

// PulseSource is a time-dependent voltage source for transient stimuli:
// V(t) steps from V1 to V2 at Delay with linear Rise time, staying at V2
// afterwards. In DC and AC it behaves as a V1 source.
type PulseSource struct {
	name   string
	P, N   int
	V1, V2 float64
	Delay  float64
	Rise   float64
	branch int
}

// NewPulseSource returns a step/pulse stimulus source.
func NewPulseSource(name string, p, n int, v1, v2, delay, rise float64) *PulseSource {
	return &PulseSource{name: name, P: p, N: n, V1: v1, V2: v2, Delay: delay, Rise: rise}
}

// Name implements Device.
func (s *PulseSource) Name() string { return s.name }

func (s *PulseSource) setBranch(idx int) { s.branch = idx }

// Branch returns the MNA branch index.
func (s *PulseSource) Branch() int { return s.branch }

// ValueAt returns the source voltage at time t.
func (s *PulseSource) ValueAt(t float64) float64 {
	switch {
	case t <= s.Delay:
		return s.V1
	case s.Rise <= 0 || t >= s.Delay+s.Rise:
		return s.V2
	default:
		return s.V1 + (s.V2-s.V1)*(t-s.Delay)/s.Rise
	}
}

// StampDC implements Device (the t=0 value).
func (s *PulseSource) StampDC(jac linalg.Stamper, res linalg.Vector, x linalg.Vector, ctx *stampCtx) {
	stampVoltageBranch(jac, res, x, s.P, s.N, s.branch, ctx.srcScale*s.V1)
}

// StampAC implements Device: pulse sources are AC-quiet.
func (s *PulseSource) StampAC(a linalg.CStamper, b []complex128, _ float64, _ linalg.Vector) {
	addAC(a, s.P, s.branch, 1)
	addAC(a, s.N, s.branch, -1)
	addAC(a, s.branch, s.P, 1)
	addAC(a, s.branch, s.N, -1)
}

// StampTran implements tranDevice.
func (s *PulseSource) StampTran(jac linalg.Stamper, res linalg.Vector, x, _ linalg.Vector, _, tNow, _ float64) {
	stampVoltageBranch(jac, res, x, s.P, s.N, s.branch, s.ValueAt(tNow))
}

// stampVoltageBranch stamps a fixed-voltage branch equation.
func stampVoltageBranch(jac linalg.Stamper, res linalg.Vector, x linalg.Vector, p, n, branch int, v float64) {
	ib := x[branch]
	addJac(jac, p, branch, 1)
	addJac(jac, n, branch, -1)
	addRes(res, p, ib)
	addRes(res, n, -ib)
	addJac(jac, branch, p, 1)
	addJac(jac, branch, n, -1)
	res[branch] += volt(x, p) - volt(x, n) - v
}

// Tran runs a fixed-step transient analysis with the theta integration
// method (trapezoidal by default). Devices without transient behaviour
// contribute their DC stamps at every time point.
func (c *Circuit) Tran(opts TranOptions) (*TranResult, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	c.finalize()
	n := c.NumVars()
	x := linalg.NewVector(n)
	if opts.Initial != nil {
		if len(opts.Initial) != n {
			return nil, fmt.Errorf("spice: transient initial state length %d, want %d", len(opts.Initial), n)
		}
		copy(x, opts.Initial)
	} else {
		dc, err := c.DC(DCOptions{})
		if err != nil {
			return nil, fmt.Errorf("spice: transient initial DC failed: %w", err)
		}
		copy(x, dc.X)
	}

	// Timing starts after the initial operating point so that work is
	// accounted under DCNanos, not double-counted here.
	if st := c.SolverStats; st != nil {
		start := time.Now()
		defer func() { st.TranNanos.Add(time.Since(start).Nanoseconds()) }()
	}

	// Reset capacitor branch states against the initial solution.
	for _, d := range c.devices {
		if cap, ok := d.(*Capacitor); ok {
			cap.iPrev = 0
		}
	}

	steps := int(math.Ceil(opts.Stop / opts.Step))
	res := &TranResult{
		Time: make([]float64, 0, steps+1),
		X:    make([]linalg.Vector, 0, steps+1),
	}
	res.Time = append(res.Time, 0)
	res.X = append(res.X, x.Clone())

	// The transient Newton loop shares the DC scratch solver: capacitor
	// companion stamps may add matrix positions the DC assembly never
	// touched, which the sparse backend absorbs by recompiling its
	// structure once, then reuses across all remaining time points.
	w := c.dcScratch(n)
	defer func() { c.flushSolverStats(w.solver.Stats(), &w.prev) }()
	sol, rhs, dx := w.solver, w.res, w.dx
	ctx := &stampCtx{srcScale: 1, gmin: 1e-12}
	nodes := c.NumNodes()

	xPrev := x.Clone()
	for k := 1; k <= steps; k++ {
		tNow := float64(k) * opts.Step
		copy(x, xPrev) // predictor: previous solution

		converged := false
		for iter := 0; iter < opts.MaxNewton; iter++ {
			sol.Reset()
			rhs.Zero()
			for _, d := range c.devices {
				if td, ok := d.(tranDevice); ok {
					td.StampTran(sol, rhs, x, xPrev, opts.Step, tNow, opts.Theta)
				} else {
					d.StampDC(sol, rhs, x, ctx)
				}
			}
			for i := 0; i < nodes; i++ {
				sol.Addto(i, i, ctx.gmin)
				rhs[i] += ctx.gmin * x[i]
			}
			if err := sol.Factor(); err != nil {
				return nil, fmt.Errorf("spice: transient Jacobian singular at t=%g: %w", tNow, c.describeSolverErr(err))
			}
			if err := sol.SolveInto(dx, rhs); err != nil {
				return nil, fmt.Errorf("spice: transient solve at t=%g: %w", tNow, err)
			}
			maxdv := 0.0
			for i := 0; i < nodes; i++ {
				if a := math.Abs(dx[i]); a > maxdv {
					maxdv = a
				}
			}
			alpha := 1.0
			if maxdv > 0.5 {
				alpha = 0.5 / maxdv
			}
			for i := 0; i < n; i++ {
				x[i] -= alpha * dx[i]
			}
			if alpha == 1 && maxdv < 1e-9 {
				converged = true
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("spice: transient Newton failed at t=%g", tNow)
		}
		// Commit stateful devices and advance.
		for _, d := range c.devices {
			if cap, ok := d.(*Capacitor); ok {
				cap.commitTran(x, xPrev, opts.Step, opts.Theta)
			}
		}
		copy(xPrev, x)
		res.Time = append(res.Time, tNow)
		res.X = append(res.X, x.Clone())
	}
	return res, nil
}

// SlewRate extracts the maximum dV/dt of a node waveform between the
// given fractions of its total swing (e.g. 0.1 and 0.9), in V/s.
func (r *TranResult) SlewRate(node int, fracLo, fracHi float64) (float64, error) {
	v := r.Voltage(node)
	if len(v) < 3 {
		return 0, errors.New("spice: waveform too short for slew extraction")
	}
	v0, v1 := v[0], v[len(v)-1]
	swing := v1 - v0
	if math.Abs(swing) < 1e-9 {
		return 0, errors.New("spice: no swing to measure")
	}
	lo := v0 + fracLo*swing
	hi := v0 + fracHi*swing
	crossT := func(level float64) float64 {
		for k := 1; k < len(v); k++ {
			a, b := v[k-1], v[k]
			if (a-level)*(b-level) <= 0 && a != b {
				t := (level - a) / (b - a)
				return r.Time[k-1] + t*(r.Time[k]-r.Time[k-1])
			}
		}
		return math.NaN()
	}
	tLo, tHi := crossT(lo), crossT(hi)
	if math.IsNaN(tLo) || math.IsNaN(tHi) || tHi == tLo {
		return 0, errors.New("spice: waveform does not cross slew thresholds")
	}
	return (hi - lo) / (tHi - tLo), nil
}
