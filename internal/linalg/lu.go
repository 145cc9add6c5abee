package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports that a factorization encountered a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// errDimension reports a shape mismatch between a solver and its inputs.
var errDimension = errors.New("linalg: dimension mismatch")

// PivotError wraps ErrSingular with the position of the vanished pivot,
// so callers that know the meaning of the matrix variables (e.g. the
// circuit layer's MNA node map) can name the offending unknown instead
// of reporting a bare "singular matrix".
type PivotError struct {
	// Index is the row/column, in the matrix's original numbering, whose
	// pivot underflowed during elimination.
	Index int
	// Err is the underlying sentinel, normally ErrSingular.
	Err error
}

// Error implements error.
func (e *PivotError) Error() string {
	return fmt.Sprintf("%v (zero pivot at index %d)", e.Err, e.Index)
}

// Unwrap makes errors.Is(err, ErrSingular) hold for wrapped pivots.
func (e *PivotError) Unwrap() error { return e.Err }

// LU holds an in-place LU factorization with partial pivoting, PA = LU.
// It is reusable in two ways: Solve may be called repeatedly with
// different right-hand sides, and Factor may be called repeatedly with
// different matrices of the same order — which is how the circuit
// simulator amortizes Newton iterations without reallocating.
type LU struct {
	lu  *Matrix
	piv []int
}

// NewLUWorkspace returns an LU with storage for order-n systems but no
// factorization yet; call Factor before Solve.
func NewLUWorkspace(n int) *LU {
	return &LU{lu: NewMatrix(n, n), piv: make([]int, n)}
}

// NewLU factors a copy of a with partial pivoting. The input is not
// modified. It returns ErrSingular when a pivot underflows.
func NewLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: LU requires a square matrix")
	}
	f := NewLUWorkspace(a.Rows)
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Factor copies a into the workspace and factors it in place, replacing
// any previous factorization. a must match the workspace order and is
// not modified. The elimination is identical to NewLU's, so refactoring
// through a reused workspace yields bit-identical factors.
func (f *LU) Factor(a *Matrix) error {
	n := f.lu.Rows
	if a.Rows != n || a.Cols != n {
		return errors.New("linalg: LU.Factor dimension mismatch")
	}
	copy(f.lu.Data, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		// Pivot: largest magnitude in column k at or below the diagonal.
		p, maxv := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv == 0 || math.IsNaN(maxv) {
			return &PivotError{Index: k, Err: ErrSingular}
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return nil
}

// Solve solves A x = b and returns x. b is not modified.
func (f *LU) Solve(b Vector) Vector {
	x := NewVector(f.lu.Rows)
	f.SolveInto(x, b)
	return x
}

// SolveInto solves A x = b into x without allocating. x and b must not
// alias.
func (f *LU) SolveInto(x, b Vector) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("linalg: LU.SolveInto dimension mismatch")
	}
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with the unit-lower-triangular factor.
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with the upper-triangular factor.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// Solve factors a and solves a single system a x = b. For repeated solves
// against the same matrix, use NewLU once and call LU.Solve.
func Solve(a *Matrix, b Vector) (Vector, error) {
	f, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
