package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func randomMatrix(r *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func randomSPD(r *rand.Rand, n int) *Matrix {
	a := randomMatrix(r, n)
	spd := a.Mul(a.T())
	for i := 0; i < n; i++ {
		spd.Addto(i, i, float64(n)) // ensure well-conditioned
	}
	return spd
}

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, -5, 6}
	if got := v.Dot(w); got != 1*4-2*5+3*6 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Norm2(); !almostEqual(got, math.Sqrt(14), tol) {
		t.Errorf("Norm2 = %v", got)
	}
	if got := w.NormInf(); got != 6 {
		t.Errorf("NormInf = %v", got)
	}
	s := v.Clone()
	s.AddScaled(2, w)
	want := Vector{9, -8, 15}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("AddScaled[%d] = %v want %v", i, s[i], want[i])
		}
	}
	if d := v.Sub(w); d[0] != -3 || d[1] != 7 || d[2] != -3 {
		t.Errorf("Sub = %v", d)
	}
	if a := v.Add(w); a[0] != 5 || a[1] != -3 || a[2] != 9 {
		t.Errorf("Add = %v", a)
	}
}

func TestVectorNorm2Overflow(t *testing.T) {
	v := Vector{1e200, 1e200}
	if got := v.Norm2(); math.IsInf(got, 0) || !almostEqual(got, 1e200*math.Sqrt2, 1e-12) {
		t.Errorf("Norm2 overflowed: %v", got)
	}
}

func TestVectorDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestMatrixMulIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randomMatrix(r, 5)
	got := a.Mul(Identity(5))
	for i := range a.Data {
		if !almostEqual(got.Data[i], a.Data[i], tol) {
			t.Fatalf("A*I != A at %d", i)
		}
	}
}

func TestMatrixTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("shape %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if at.At(j, i) != a.At(i, j) {
				t.Errorf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := Vector{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], tol) {
			t.Errorf("x[%d] = %v want %v", i, x[i], want[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := NewLU(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

// Property: for random well-conditioned systems, LU solve satisfies A x = b.
func TestLUSolveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(10)
		a := randomSPD(rr, n)
		b := NewVector(n)
		for i := range b {
			b[i] = rr.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		res := a.MulVec(x).Sub(b)
		return res.NormInf() < 1e-8*(1+b.NormInf())
	}
	cfg := &quick.Config{MaxCount: 50, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCSolveKnown(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, complex(1, 1))
	a.Set(0, 1, complex(2, 0))
	a.Set(1, 0, complex(0, -1))
	a.Set(1, 1, complex(1, 0))
	want := []complex128{complex(1, -1), complex(0, 2)}
	b := []complex128{
		a.At(0, 0)*want[0] + a.At(0, 1)*want[1],
		a.At(1, 0)*want[0] + a.At(1, 1)*want[1],
	}
	x, err := CSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d := x[i] - want[i]; math.Hypot(real(d), imag(d)) > 1e-10 {
			t.Errorf("x[%d] = %v want %v", i, x[i], want[i])
		}
	}
}

func TestCSolveSingular(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := CSolve(a, []complex128{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

// Property: complex solve satisfies the residual equation.
func TestCSolveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(8)
		a := NewCMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = complex(rr.NormFloat64(), rr.NormFloat64())
		}
		for i := 0; i < n; i++ {
			a.Addto(i, i, complex(float64(n), 0)) // diagonal dominance
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rr.NormFloat64(), rr.NormFloat64())
		}
		x, err := CSolve(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			s := complex128(0)
			for j := 0; j < n; j++ {
				s += a.At(i, j) * x[j]
			}
			d := s - b[i]
			if math.Hypot(real(d), imag(d)) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMatrixMulVecShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 3).MulVec(Vector{1, 2})
}

func TestLUNonSquare(t *testing.T) {
	if _, err := NewLU(NewMatrix(2, 3)); err == nil {
		t.Error("non-square LU accepted")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityAndString(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity[%d][%d] = %v", i, j, id.At(i, j))
			}
		}
	}
	if s := id.String(); len(s) == 0 {
		t.Error("empty String()")
	}
}

func TestCSolveNonSquareAndMismatch(t *testing.T) {
	if _, err := CSolve(NewCMatrix(2, 3), make([]complex128, 2)); err == nil {
		t.Error("non-square CSolve accepted")
	}
	if _, err := CSolve(NewCMatrix(2, 2), make([]complex128, 3)); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestVectorZeroAndScale(t *testing.T) {
	v := Vector{1, 2, 3}
	v.Scale(2)
	if v[2] != 6 {
		t.Error("Scale failed")
	}
	v.Zero()
	if v[0] != 0 || v[1] != 0 || v[2] != 0 {
		t.Error("Zero failed")
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random matrices.
func TestTransposeProductProperty(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		m, k, n := 1+rr.Intn(5), 1+rr.Intn(5), 1+rr.Intn(5)
		a := NewMatrix(m, k)
		b := NewMatrix(k, n)
		for i := range a.Data {
			a.Data[i] = rr.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rr.NormFloat64()
		}
		lhs := a.Mul(b).T()
		rhs := b.T().Mul(a.T())
		for i := range lhs.Data {
			if !almostEqual(lhs.Data[i], rhs.Data[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: r}); err != nil {
		t.Error(err)
	}
}
