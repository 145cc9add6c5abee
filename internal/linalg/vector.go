// Package linalg provides the dense linear algebra kernels used throughout
// the yield optimizer: real and complex LU factorizations for the circuit
// simulator's MNA systems.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS replacement: matrices in this problem domain are dense and
// modest in size (tens of rows), and the simulator refactorizes them inside
// Newton loops, so predictable performance matters more than asymptotics.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector of float64 values.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	s := 0.0
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v, guarding against overflow.
func (v Vector) Norm2() float64 {
	scale, ssq := 0.0, 1.0
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute entry of v (0 for an empty vector).
func (v Vector) NormInf() float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Scale multiplies every entry of v by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// AddScaled performs v += a*w in place and returns v.
func (v Vector) AddScaled(a float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
	return v
}

// Sub returns the difference v-w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Sub length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Add returns the sum v+w as a new vector.
func (v Vector) Add(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Add length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Zero sets all entries of v to zero.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}
