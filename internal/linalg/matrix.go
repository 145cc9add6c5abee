package linalg

import (
	"fmt"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices, which must all share one length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("linalg: ragged row %d: %d vs %d", i, len(r), c))
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Addto adds v to the element at row i, column j.
func (m *Matrix) Addto(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns an independent copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears every entry of m.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MulVec returns m*v as a new vector.
func (m *Matrix) MulVec(v Vector) Vector {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// Mul returns the matrix product m*b as a new matrix.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Row(i)
		orow := out.Row(i)
		for k, a := range arow {
			if a == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% .6e ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
