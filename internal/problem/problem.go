// Package problem defines the black-box abstraction the yield optimizer
// works on: performance specifications, bounded design parameters,
// normalized statistical parameters, operating ranges, and the evaluation
// callbacks the circuit layer implements. The paper's effort report
// (Table 7) counts simulator calls through an evalcache.View, the one
// wrapper between the optimizer and these callbacks.
package problem

import (
	"errors"
	"fmt"
)

// SpecKind says which side of the bound is acceptable.
type SpecKind int

const (
	// GE means the performance must satisfy f >= Bound (e.g. gain).
	GE SpecKind = iota
	// LE means the performance must satisfy f <= Bound (e.g. power).
	LE
)

// Spec is one performance specification f^(i) together with its bound
// f_b^(i) from the paper's Sec. 2.
type Spec struct {
	Name  string
	Unit  string
	Kind  SpecKind
	Bound float64
}

// Margin converts a raw performance value into the normalized
// "satisfied when >= 0" form used throughout the optimizer.
func (s Spec) Margin(f float64) float64 {
	if s.Kind == GE {
		return f - s.Bound
	}
	return s.Bound - f
}

// Satisfied reports whether performance value f meets the spec.
func (s Spec) Satisfied(f float64) bool { return s.Margin(f) >= 0 }

// Param is a bounded design parameter d_k (widths, lengths, bias levels).
// Values are expressed in designer units (µm, µA) so that coordinate
// steps are naturally scaled.
type Param struct {
	Name string
	Unit string
	Init float64
	Lo   float64
	Hi   float64
	// LogScale marks parameters that act multiplicatively (transistor
	// widths, capacitances): trust regions then bound the ratio of
	// change rather than the absolute step.
	LogScale bool
}

// OpRange is one operating parameter θ_j with its tolerance range Θ.
type OpRange struct {
	Name    string
	Unit    string
	Nominal float64
	Lo      float64
	Hi      float64
}

// EvalFunc computes every performance at design point d, normalized
// statistical point s (ŝ ~ N(0,I) in the transformed space of Eq. 11) and
// operating point theta. One call corresponds to one run of the full
// testbench, counted as one circuit simulation.
type EvalFunc func(d, s, theta []float64) ([]float64, error)

// EvalSpecFunc computes performance i alone at (d, s, θ), running only the
// analyses that performance needs (for an opamp: DC alone for power, one
// AC point more for the gain, the full sweep only for the unity
// frequency). One call also counts as one circuit simulation, as in the
// paper's per-spec effort accounting (Table 7).
//
// It must return exactly Eval(d, s, θ)[i], bit for bit, with one
// deliberate exception: a performance that needs fewer analyses stays
// finite where Eval goes NaN only because a later analysis it does not
// need (an AC solve, for a DC-only spec) failed.
type EvalSpecFunc func(d, s, theta []float64, i int) (float64, error)

// ConstraintFunc evaluates the functional constraints c(d) >= 0 of
// Sec. 5.1 at the nominal statistical and operating point. One call
// corresponds to one (cheaper, DC-only) circuit simulation.
type ConstraintFunc func(d []float64) ([]float64, error)

// SimCounters reports how the simulator behind a problem spent its
// effort, in simulator-neutral terms. All fields are cumulative since
// problem construction.
type SimCounters struct {
	// WarmStarts counts DC solves attempted from a reference operating
	// point instead of the cold homotopy ladder.
	WarmStarts int64 `json:"warm_starts"`
	// WarmConverged counts warm-started solves that converged directly,
	// without falling back to gmin/source stepping.
	WarmConverged int64 `json:"warm_converged"`
	// Fallbacks counts DC solves that needed the gmin/source-stepping
	// homotopy ladder after plain Newton failed.
	Fallbacks int64 `json:"fallbacks"`
	// NewtonIters counts DC Newton iterations across all solves.
	NewtonIters int64 `json:"newton_iters"`
	// Solver names the linear-solver backend ("sparse" or "dense").
	Solver string `json:"solver,omitempty"`
	// Factorizations counts numeric matrix factorizations.
	Factorizations int64 `json:"factorizations"`
	// Solves counts triangular solves.
	Solves int64 `json:"solves"`
	// SymbolicFacts counts symbolic factorizations (sparsity analysis and
	// fill-reducing ordering); the sparse backend pays one per topology.
	SymbolicFacts int64 `json:"symbolic_factorizations"`
	// MatrixNNZ is the stored-entry count of the last assembled MNA
	// system (a gauge, not a counter).
	MatrixNNZ int64 `json:"matrix_nnz"`
	// FactorNNZ is the stored-entry count of its L+U factors; the excess
	// over MatrixNNZ is the factorization fill-in.
	FactorNNZ int64 `json:"factor_nnz"`
	// DCSolveNanos, ACSolveNanos and TranSolveNanos split solver wall
	// time (assembly + factorization + solves) by analysis type, so the
	// simulator's cost structure is visible without a profiler.
	DCSolveNanos int64 `json:"dc_solve_nanos"`
	// ACSolveNanos: see DCSolveNanos.
	ACSolveNanos int64 `json:"ac_solve_nanos"`
	// TranSolveNanos: see DCSolveNanos.
	TranSolveNanos int64 `json:"tran_solve_nanos"`
}

// Add accumulates o into c: counters add, the backend name and the NNZ
// gauges take o's values when o observed a system.
func (c *SimCounters) Add(o SimCounters) {
	c.WarmStarts += o.WarmStarts
	c.WarmConverged += o.WarmConverged
	c.Fallbacks += o.Fallbacks
	c.NewtonIters += o.NewtonIters
	c.Factorizations += o.Factorizations
	c.Solves += o.Solves
	c.SymbolicFacts += o.SymbolicFacts
	c.DCSolveNanos += o.DCSolveNanos
	c.ACSolveNanos += o.ACSolveNanos
	c.TranSolveNanos += o.TranSolveNanos
	if o.Solver != "" {
		c.Solver = o.Solver
	}
	if o.MatrixNNZ != 0 {
		c.MatrixNNZ = o.MatrixNNZ
	}
	if o.FactorNNZ != 0 {
		c.FactorNNZ = o.FactorNNZ
	}
}

// Problem is the black-box circuit abstraction the optimizer works on.
type Problem struct {
	Name            string
	Specs           []Spec
	Design          []Param
	StatNames       []string // length = statistical dimension
	Theta           []OpRange
	ConstraintNames []string
	Eval            EvalFunc
	// EvalSpec, when non-nil, is the cheaper per-spec evaluator; nil
	// falls back to Eval(...)[i]. Callers go through SpecValue. A wrapper
	// that replaces Eval must wrap EvalSpec too (or clear it), or
	// per-spec calls bypass it.
	EvalSpec    EvalSpecFunc
	Constraints ConstraintFunc
	// SimStats, when non-nil, snapshots the simulator-side effort
	// counters (DC warm starts, fallbacks, Newton iterations) so the
	// optimizer can report them alongside the simulation counts.
	SimStats func() SimCounters
}

// SpecValue returns performance i at (d, s, θ). It is the single entry
// point for call sites that need one spec, such as a worst-case search,
// a spec's design gradient or an importance sampler.
//
// Points where s has at most one nonzero entry are evaluated in full.
// Several specs' searches visit those points: s = 0 at each operating
// corner, and the ±h·e_k probes of the first gradient from it. One full
// evaluation (memoized by an evaluation cache) then answers every spec
// there. All other points go through EvalSpec when the problem has one.
// The choice depends only on the point, never on call order, so
// simulation counts stay deterministic.
func (p *Problem) SpecValue(d, s, theta []float64, i int) (float64, error) {
	if p.EvalSpec == nil || nonzeros(s) <= 1 {
		vals, err := p.Eval(d, s, theta)
		if err != nil {
			return 0, err
		}
		return vals[i], nil
	}
	return p.EvalSpec(d, s, theta, i)
}

// nonzeros counts the nonzero entries of v.
func nonzeros(v []float64) int {
	n := 0
	for _, x := range v {
		if x != 0 {
			n++
		}
	}
	return n
}

// NumSpecs returns the number of performance specifications.
func (p *Problem) NumSpecs() int { return len(p.Specs) }

// NumDesign returns the design-space dimension.
func (p *Problem) NumDesign() int { return len(p.Design) }

// NumStat returns the statistical-space dimension.
func (p *Problem) NumStat() int { return len(p.StatNames) }

// InitialDesign returns the initial design vector d0.
func (p *Problem) InitialDesign() []float64 {
	d := make([]float64, len(p.Design))
	for i, prm := range p.Design {
		d[i] = prm.Init
	}
	return d
}

// NominalTheta returns the nominal operating point.
func (p *Problem) NominalTheta() []float64 {
	t := make([]float64, len(p.Theta))
	for i, op := range p.Theta {
		t[i] = op.Nominal
	}
	return t
}

// ClampDesign clips d into the design box in place and returns it.
func (p *Problem) ClampDesign(d []float64) []float64 {
	for i, prm := range p.Design {
		if d[i] < prm.Lo {
			d[i] = prm.Lo
		}
		if d[i] > prm.Hi {
			d[i] = prm.Hi
		}
	}
	return d
}

// CheckPoint reports an error unless d has one entry per design
// parameter and s one per statistical parameter, so the analyses that
// take them from callers fail cleanly instead of indexing out of range.
func (p *Problem) CheckPoint(d, s []float64) error {
	if len(d) != p.NumDesign() {
		return fmt.Errorf("problem %q: design point has %d entries, want %d", p.Name, len(d), p.NumDesign())
	}
	if len(s) != p.NumStat() {
		return fmt.Errorf("problem %q: statistical point has %d entries, want %d", p.Name, len(s), p.NumStat())
	}
	return nil
}

// Validate checks structural consistency of the problem definition.
func (p *Problem) Validate() error {
	if p.Eval == nil {
		return errors.New("core: Problem.Eval is nil")
	}
	if len(p.Specs) == 0 {
		return errors.New("core: Problem has no specifications")
	}
	for i, prm := range p.Design {
		if prm.Lo > prm.Hi {
			return fmt.Errorf("core: design param %q has Lo > Hi", prm.Name)
		}
		if prm.Init < prm.Lo || prm.Init > prm.Hi {
			return fmt.Errorf("core: design param %d (%q) initial value %g outside [%g, %g]",
				i, prm.Name, prm.Init, prm.Lo, prm.Hi)
		}
	}
	for _, op := range p.Theta {
		if op.Lo > op.Hi || op.Nominal < op.Lo || op.Nominal > op.Hi {
			return fmt.Errorf("core: operating param %q range invalid", op.Name)
		}
	}
	return nil
}
