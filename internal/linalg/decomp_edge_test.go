package linalg

import (
	"errors"
	"math"
	"testing"
)

// Edge-case coverage for the Cholesky decomposition: degenerate shapes
// and non-SPD inputs.

func TestCholeskyEdgeCases(t *testing.T) {
	// 0×0 succeeds trivially.
	if _, err := Cholesky(NewMatrix(0, 0)); err != nil {
		t.Fatalf("0x0 Cholesky: %v", err)
	}
	// 1×1 positive.
	l, err := Cholesky(FromRows([][]float64{{9}}))
	if err != nil {
		t.Fatal(err)
	}
	if l.At(0, 0) != 3 {
		t.Fatalf("1x1 Cholesky: L = %v, want [[3]]", l)
	}
	// 1×1 zero and negative are not positive definite.
	if _, err := Cholesky(FromRows([][]float64{{0}})); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("zero 1x1: err = %v", err)
	}
	if _, err := Cholesky(FromRows([][]float64{{-1}})); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("negative 1x1: err = %v", err)
	}
	// Positive semi-definite (rank 1) fails on the second pivot.
	if _, err := Cholesky(FromRows([][]float64{{1, 1}, {1, 1}})); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("semi-definite: err = %v", err)
	}
	// Indefinite.
	if _, err := Cholesky(FromRows([][]float64{{1, 2}, {2, 1}})); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("indefinite: err = %v", err)
	}
	// NaN contamination must not silently produce a factor.
	if _, err := Cholesky(FromRows([][]float64{{math.NaN(), 0}, {0, 1}})); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("NaN diagonal: err = %v", err)
	}
	// Non-square is rejected.
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square Cholesky should error")
	}
}

func TestSolveSPDNotPositiveDefinite(t *testing.T) {
	a := FromRows([][]float64{{0, 0}, {0, 0}})
	if _, err := SolveSPD(a, Vector{1, 1}); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestTriangularSolves1x1(t *testing.T) {
	l := FromRows([][]float64{{2}})
	if x := SolveLowerTriangular(l, Vector{4}); x[0] != 2 {
		t.Fatalf("lower 1x1: %v", x)
	}
	if x := SolveUpperTriangular(l, Vector{4}); x[0] != 2 {
		t.Fatalf("upper 1x1: %v", x)
	}
}
