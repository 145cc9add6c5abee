package linalg

import (
	"errors"
	"math"
)

// CMatrix is a dense, row-major matrix of complex128 values. The AC
// analysis of the circuit simulator solves (G + jωC)·x = b systems with it.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewCMatrix returns a zero complex matrix with the given shape.
func NewCMatrix(rows, cols int) *CMatrix {
	return &CMatrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// At returns the element at row i, column j.
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Addto adds v to the element at row i, column j.
func (m *CMatrix) Addto(i, j int, v complex128) { m.Data[i*m.Cols+j] += v }

// Row returns row i aliasing the matrix storage.
func (m *CMatrix) Row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns an independent copy of m.
func (m *CMatrix) Clone() *CMatrix {
	c := NewCMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears every entry of m.
func (m *CMatrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CSolver is reusable workspace for solving complex dense systems of a
// fixed order. The AC sweep solves one (G + jωC)·x = b system per
// frequency point; reusing the elimination scratch and solution storage
// across points removes the dominant allocation on that path. The
// elimination is the same code CSolve runs, so a reused workspace yields
// bit-identical solutions.
type CSolver struct {
	lu *CMatrix
	x  []complex128
}

// NewCSolver returns workspace for order-n systems.
func NewCSolver(n int) *CSolver {
	return &CSolver{lu: NewCMatrix(n, n), x: make([]complex128, n)}
}

// SolveInto solves a x = b and returns x aliasing the workspace: the
// slice is valid until the next SolveInto call. a and b are not modified.
func (cs *CSolver) SolveInto(a *CMatrix, b []complex128) ([]complex128, error) {
	n := cs.lu.Rows
	if a.Rows != n || a.Cols != n {
		return nil, errors.New("linalg: CSolver dimension mismatch")
	}
	if len(b) != n {
		return nil, errors.New("linalg: CSolver dimension mismatch")
	}
	copy(cs.lu.Data, a.Data)
	copy(cs.x, b)
	return csolve(cs.lu, cs.x)
}

// CSolve solves a x = b in place of a copy of a using partially pivoted
// Gaussian elimination and returns x. a and b are not modified. For
// repeated solves of same-order systems, use a CSolver.
func CSolve(a *CMatrix, b []complex128) ([]complex128, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: CSolve requires a square matrix")
	}
	n := a.Rows
	if len(b) != n {
		return nil, errors.New("linalg: CSolve dimension mismatch")
	}
	lu := a.Clone()
	x := make([]complex128, n)
	copy(x, b)
	return csolve(lu, x)
}

// csolve eliminates lu in place with partial pivoting and overwrites x
// (initially the right-hand side) with the solution, which it returns.
func csolve(lu *CMatrix, x []complex128) ([]complex128, error) {
	n := lu.Rows
	data := lu.Data
	for k := 0; k < n; k++ {
		// Pivot on the squared magnitude: strictly monotone in |·|, so
		// the same row wins as with cmplx.Abs, without a sqrt per
		// candidate. (Entries below ~1e-154 square to zero; columns that
		// small are singular to working precision anyway.)
		p, maxv := k, sqmag(data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := sqmag(data[i*n+k]); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv == 0 {
			return nil, &PivotError{Index: k, Err: ErrSingular}
		}
		if p != k {
			rk, rp := data[k*n:(k+1)*n], data[p*n:(p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			x[k], x[p] = x[p], x[k]
		}
		pivot := data[k*n+k]
		pd := newPivotDiv(pivot)
		for i := k + 1; i < n; i++ {
			// MNA columns are sparse: checking the entry before dividing
			// skips the (expensive) complex division for the common
			// structurally-zero case, with the same outcome.
			e := data[i*n+k]
			if e == 0 {
				continue
			}
			m := pd.div(e, pivot)
			if m == 0 {
				continue
			}
			ri, rk := data[i*n:(i+1)*n], data[k*n:(k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
			x[i] -= m * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		row := data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// sqmag returns |c|² without the square root of cmplx.Abs.
func sqmag(c complex128) float64 {
	re, im := real(c), imag(c)
	return re*re + im*im
}

// pivotDiv divides many numerators by one fixed complex divisor. It
// hoists the ratio/denominator of Smith's robust-division algorithm
// (Algorithm 116, CACM 1962) — the same algorithm the Go runtime uses
// for complex128 division — out of the per-element call, producing
// bit-identical quotients for finite inputs. The rare all-NaN outcome
// falls back to the native division so special-value semantics match
// the runtime exactly. newPivotDiv and div are written to fit the
// compiler's inlining budget, so the sweep kernel's per-lane divisions
// are not calls.
type pivotDiv struct {
	ratio, denom float64
	swapped      bool // |imag(pivot)| > |real(pivot)|
}

func newPivotDiv(pivot complex128) (d pivotDiv) {
	re, im := real(pivot), imag(pivot)
	if d.swapped = !(math.Abs(re) >= math.Abs(im)); d.swapped { // NaN swaps, as in the runtime
		re, im = im, re
	}
	d.ratio = im / re
	d.denom = re + d.ratio*im
	return d
}

func (d pivotDiv) div(n, pivot complex128) complex128 {
	var e, f float64
	if !d.swapped {
		e = (real(n) + imag(n)*d.ratio) / d.denom
		f = (imag(n) - real(n)*d.ratio) / d.denom
	} else {
		e = (real(n)*d.ratio + imag(n)) / d.denom
		f = (imag(n)*d.ratio - real(n)) / d.denom
	}
	if e != e && f != f { // both NaN
		return n / pivot
	}
	return complex(e, f)
}
