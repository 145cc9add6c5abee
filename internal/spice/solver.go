package spice

import (
	"errors"
	"fmt"
	"sync/atomic"

	"specwise/internal/linalg"
)

// SolverKind selects the linear-solver backend for a circuit's analyses.
type SolverKind int

const (
	// SolverAuto defers to the package-level DefaultSolver.
	SolverAuto SolverKind = iota
	// SolverSparse uses the compressed-column LU with a symbolic/numeric
	// factorization split — the production default: MNA systems here are
	// ~80% structural zeros and every Newton iteration re-solves the same
	// pattern.
	SolverSparse
	// SolverDense uses the dense LU reference backend, bit-identical to
	// the pre-interface dense path.
	SolverDense
)

// String returns the backend name used in reports and metrics.
func (k SolverKind) String() string {
	switch k {
	case SolverSparse:
		return "sparse"
	case SolverDense:
		return "dense"
	default:
		return "auto"
	}
}

// DefaultSolver is the backend used by circuits whose Options leave the
// solver on SolverAuto.
var DefaultSolver = SolverSparse

// Options carries per-circuit analysis configuration. Parallelism is not
// part of it: analyses run on the calling goroutine, and callers fan
// whole evaluations out over the process-wide scheduler
// (internal/sched).
type Options struct {
	// Solver selects the linear-solver backend; SolverAuto (the zero
	// value) follows DefaultSolver.
	Solver SolverKind
	// SymCache, when non-nil, shares symbolic LU factorizations across
	// circuits with identical matrix structure (sparse backend only).
	// The evaluation harness seeds one per problem from a reference
	// circuit and freezes it, so each of the problem's pooled circuits
	// skips pattern analysis and fill-reducing ordering, on its first
	// analysis and again after every ResetSolvers. Set it before the
	// first analysis.
	SymCache *linalg.SymbolicCache
}

// solverKind resolves the effective backend for this circuit.
func (c *Circuit) solverKind() SolverKind {
	k := c.Opts.Solver
	if k == SolverAuto {
		k = DefaultSolver
	}
	if k == SolverAuto {
		k = SolverSparse
	}
	return k
}

// SolverStats accumulates linear-solver effort across analyses. One
// instance may be shared by many circuits (the evaluation harness shares
// one per problem); it is safe for concurrent use. Factorization and
// solve counts are cumulative; the NNZ fields are last-observed gauges
// describing the most recent system.
type SolverStats struct {
	// Factorizations counts numeric factorizations.
	Factorizations atomic.Int64
	// Solves counts triangular solves.
	Solves atomic.Int64
	// Symbolic counts symbolic factorizations (pattern analysis plus
	// fill-reducing ordering); the sparse backend pays one per topology.
	Symbolic atomic.Int64
	// MatrixNNZ is the stored-entry count of the last assembled system.
	MatrixNNZ atomic.Int64
	// FactorNNZ is the stored-entry count of its L+U factors; the excess
	// over MatrixNNZ is the fill-in.
	FactorNNZ atomic.Int64
	// DCNanos, ACNanos and TranNanos split analysis wall time
	// (assembly + factorization + solves) by analysis type, so the
	// solver cost structure is visible without a profiler.
	DCNanos   atomic.Int64
	ACNanos   atomic.Int64
	TranNanos atomic.Int64
	// kind records the backend of the last flushing circuit.
	kind atomic.Int64
}

// Kind returns the backend name of the most recent analysis ("sparse",
// "dense", or "" before any analysis ran).
func (s *SolverStats) Kind() string {
	switch SolverKind(s.kind.Load()) {
	case SolverSparse:
		return "sparse"
	case SolverDense:
		return "dense"
	default:
		return ""
	}
}

// flushSolverStats folds the delta between a backend's cumulative
// counters and the previously flushed snapshot into the circuit's shared
// SolverStats. Analyses call it once per run (DC, transient) or per
// point (AC), so shared counters stay current without atomics on the
// per-iteration hot path.
func (c *Circuit) flushSolverStats(cur linalg.SolverStats, prev *linalg.SolverStats) {
	st := c.SolverStats
	if st == nil {
		*prev = cur
		return
	}
	st.Factorizations.Add(cur.Factorizations - prev.Factorizations)
	st.Solves.Add(cur.Solves - prev.Solves)
	st.Symbolic.Add(cur.Symbolic - prev.Symbolic)
	st.MatrixNNZ.Store(int64(cur.NNZ))
	st.FactorNNZ.Store(int64(cur.FillNNZ))
	st.kind.Store(int64(c.solverKind()))
	*prev = cur
}

// VarName names MNA variable i for diagnostics: the node name for node
// variables, "I(device)" for branch currents.
func (c *Circuit) VarName(i int) string {
	if i == groundIndex {
		return Ground
	}
	if i < len(c.nodeNames) {
		return c.nodeNames[i]
	}
	b := i - len(c.nodeNames)
	if b < len(c.branchDevs) {
		if d, ok := c.branchDevs[b].(Device); ok {
			return "I(" + d.Name() + ")"
		}
	}
	return fmt.Sprintf("var%d", i)
}

// describeSolverErr augments a linear-solver error with circuit-level
// context: a PivotError's matrix index becomes the MNA variable (node or
// branch) whose pivot vanished.
func (c *Circuit) describeSolverErr(err error) error {
	var pe *linalg.PivotError
	if errors.As(err, &pe) {
		return fmt.Errorf("%w; MNA variable %q", err, c.VarName(pe.Index))
	}
	return err
}
