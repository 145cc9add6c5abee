package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randSystem builds a random sparse-ish system with a structurally
// guaranteed nonzero somewhere in every row and column, mimicking MNA
// Jacobians (including zero diagonal entries on branch rows).
func randSystem(rng *rand.Rand, n int, density float64) (*Matrix, Vector) {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				a.Set(i, j, rng.NormFloat64())
			}
		}
	}
	// Couple row i to column (i+1)%n so the matrix is structurally
	// nonsingular without relying on the diagonal.
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a.Addto(i, j, 2+rng.Float64())
	}
	b := NewVector(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, b
}

func stampDense(s Stamper, a *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if v := a.At(i, j); v != 0 {
				s.Addto(i, j, v)
			}
		}
	}
}

func maxRelDiff(x, y Vector) float64 {
	worst := 0.0
	for i := range x {
		scale := math.Max(math.Abs(x[i]), math.Abs(y[i]))
		if scale < 1e-12 {
			scale = 1
		}
		if d := math.Abs(x[i]-y[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

func TestSparseMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 5, 8, 13, 21, 34} {
		for trial := 0; trial < 20; trial++ {
			a, b := randSystem(rng, n, 0.25)
			ds := NewDenseSolver(n)
			sp := NewSparseSolver(n)
			stampDense(ds, a)
			stampDense(sp, a)
			if err := ds.Factor(); err != nil {
				continue // skip the rare numerically singular draw
			}
			if err := sp.Factor(); err != nil {
				t.Fatalf("n=%d trial=%d: sparse Factor: %v", n, trial, err)
			}
			xd, xs := NewVector(n), NewVector(n)
			if err := ds.SolveInto(xd, b); err != nil {
				t.Fatal(err)
			}
			if err := sp.SolveInto(xs, b); err != nil {
				t.Fatal(err)
			}
			if d := maxRelDiff(xd, xs); d > 1e-9 {
				t.Fatalf("n=%d trial=%d: dense/sparse disagree, max rel diff %g", n, trial, d)
			}
		}
	}
}

// TestSparseMNAZeroDiagonal exercises the MNA shape that breaks naive
// no-pivot sparse LU: voltage-source branch rows with structurally zero
// diagonals.
func TestSparseMNAZeroDiagonal(t *testing.T) {
	// 2-node circuit: V source 5V at node 0 (branch var 2), R=2 from
	// node 0 to node 1, R=1 from node 1 to ground.
	//   [ 0.5 -0.5  1 ] [v0]   [0]
	//   [-0.5  1.5  0 ] [v1] = [0]
	//   [ 1    0    0 ] [iV]   [5]
	n := 3
	sp := NewSparseSolver(n)
	sp.Addto(0, 0, 0.5)
	sp.Addto(0, 1, -0.5)
	sp.Addto(0, 2, 1)
	sp.Addto(1, 0, -0.5)
	sp.Addto(1, 1, 1.5)
	sp.Addto(2, 0, 1)
	if err := sp.Factor(); err != nil {
		t.Fatalf("Factor: %v", err)
	}
	x := NewVector(n)
	if err := sp.SolveInto(x, Vector{0, 0, 5}); err != nil {
		t.Fatal(err)
	}
	want := Vector{5, 5.0 / 3.0, -(5 - 5.0/3.0) / 2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x[%d] = %g, want %g (x=%v)", i, x[i], want[i], x)
		}
	}
	st := sp.Stats()
	if st.Kind != "sparse" || st.N != 3 || st.NNZ != 6 {
		t.Fatalf("stats = %+v, want sparse/3/6", st)
	}
	if st.Symbolic != 1 || st.Factorizations != 1 || st.Solves != 1 {
		t.Fatalf("counters = %+v", st)
	}
}

// TestSparseRefactorBitIdentical verifies the symbolic/numeric split:
// refactoring on identical values must reproduce bit-identical solutions
// (the determinism contract the simulator's eval cache relies on), and
// the second Factor must not redo symbolic analysis.
func TestSparseRefactorBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 12
	a, b := randSystem(rng, n, 0.3)
	sp := NewSparseSolver(n)
	stampDense(sp, a)
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	x1 := NewVector(n)
	if err := sp.SolveInto(x1, b); err != nil {
		t.Fatal(err)
	}
	// Same values, second factorization: must take the refactor path.
	sp.Reset()
	stampDense(sp, a)
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	x2 := NewVector(n)
	if err := sp.SolveInto(x2, b); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("refactor not bit-identical at %d: %x vs %x", i, x1[i], x2[i])
		}
	}
	st := sp.Stats()
	if st.Symbolic != 1 {
		t.Fatalf("expected 1 symbolic factorization, got %d", st.Symbolic)
	}
	if st.Factorizations != 2 {
		t.Fatalf("expected 2 numeric factorizations, got %d", st.Factorizations)
	}
	// Perturbed values along the same pattern still go through refactor.
	sp.Reset()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := a.At(i, j); v != 0 {
				sp.Addto(i, j, v*(1+1e-6))
			}
		}
	}
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	if st := sp.Stats(); st.Symbolic != 1 {
		t.Fatalf("perturbed refactor redid symbolic analysis: %+v", st)
	}
}

// TestSparseRepivotFallback drives the stored pivot order degenerate so
// refactor must fall back to a fresh symbolic factorization.
func TestSparseRepivotFallback(t *testing.T) {
	n := 2
	sp := NewSparseSolver(n)
	// First system: diagonal dominant, pivots on the diagonal.
	sp.Addto(0, 0, 10)
	sp.Addto(0, 1, 1)
	sp.Addto(1, 0, 1)
	sp.Addto(1, 1, 10)
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	// Second system, same pattern: the old pivot (0,0) collapses to
	// ~zero relative to its column, forcing a repivot.
	sp.Reset()
	sp.Addto(0, 0, 1e-12)
	sp.Addto(0, 1, 1)
	sp.Addto(1, 0, 1)
	sp.Addto(1, 1, 1e-12)
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	x := NewVector(n)
	if err := sp.SolveInto(x, Vector{1, 2}); err != nil {
		t.Fatal(err)
	}
	// x ≈ [2, 1] for the anti-diagonal system.
	if math.Abs(x[0]-2) > 1e-9 || math.Abs(x[1]-1) > 1e-9 {
		t.Fatalf("x = %v, want ~[2 1]", x)
	}
	if st := sp.Stats(); st.Symbolic != 2 {
		t.Fatalf("expected repivot to redo symbolic analysis: %+v", st)
	}
}

// TestSparseStructureGrowth stamps an entry outside the compiled
// structure (the transient-after-DC case) and checks the backend
// recompiles and still solves correctly.
func TestSparseStructureGrowth(t *testing.T) {
	n := 3
	sp := NewSparseSolver(n)
	sp.Addto(0, 0, 2)
	sp.Addto(1, 1, 3)
	sp.Addto(2, 2, 4)
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	nnz0 := sp.Stats().NNZ
	if nnz0 != 3 {
		t.Fatalf("NNZ = %d, want 3", nnz0)
	}
	// New position (0,1) arrives mid-assembly of the next system.
	sp.Reset()
	sp.Addto(0, 0, 2)
	sp.Addto(1, 1, 3)
	sp.Addto(2, 2, 4)
	sp.Addto(0, 1, 1)
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	if nnz := sp.Stats().NNZ; nnz != 4 {
		t.Fatalf("NNZ after growth = %d, want 4", nnz)
	}
	x := NewVector(n)
	if err := sp.SolveInto(x, Vector{2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// 2x0 + x1 = 2, 3x1 = 3, 4x2 = 4 → x = [0.5, 1, 1].
	want := Vector{0.5, 1, 1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSparseSingularPivotError(t *testing.T) {
	sp := NewSparseSolver(3)
	sp.Addto(0, 0, 1)
	sp.Addto(1, 1, 1)
	// Row/column 2 entirely empty → structurally singular.
	err := sp.Factor()
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("Factor err = %v, want ErrSingular", err)
	}
	var pe *PivotError
	if !errors.As(err, &pe) {
		t.Fatalf("Factor err %T does not wrap PivotError", err)
	}
	if pe.Index != 2 {
		t.Fatalf("PivotError.Index = %d, want 2", pe.Index)
	}
	if err := sp.SolveInto(NewVector(3), NewVector(3)); err == nil {
		t.Fatal("SolveInto after failed Factor should error")
	}
}

func TestSparseTinyOrders(t *testing.T) {
	// 0×0: Factor and SolveInto are trivial no-ops.
	sp := NewSparseSolver(0)
	if err := sp.Factor(); err != nil {
		t.Fatalf("0x0 Factor: %v", err)
	}
	if err := sp.SolveInto(Vector{}, Vector{}); err != nil {
		t.Fatalf("0x0 SolveInto: %v", err)
	}
	// 1×1.
	sp1 := NewSparseSolver(1)
	sp1.Addto(0, 0, 4)
	if err := sp1.Factor(); err != nil {
		t.Fatal(err)
	}
	x := NewVector(1)
	if err := sp1.SolveInto(x, Vector{8}); err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 {
		t.Fatalf("x = %v, want [2]", x)
	}
	// Duplicate stamps at one position must merge.
	sp1.Reset()
	sp1.Addto(0, 0, 1)
	sp1.Addto(0, 0, 3)
	if err := sp1.Factor(); err != nil {
		t.Fatal(err)
	}
	if err := sp1.SolveInto(x, Vector{8}); err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 {
		t.Fatalf("after duplicate merge x = %v, want [2]", x)
	}
}

func TestSparseDimensionMismatch(t *testing.T) {
	sp := NewSparseSolver(2)
	sp.Addto(0, 0, 1)
	sp.Addto(1, 1, 1)
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	if err := sp.SolveInto(NewVector(3), NewVector(2)); !errors.Is(err, errDimension) {
		t.Fatalf("err = %v, want dimension mismatch", err)
	}
}

func TestSparseComplexMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 11
	for trial := 0; trial < 20; trial++ {
		a := NewCMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.3 {
					a.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
				}
			}
			a.Addto(i, (i+1)%n, complex(2+rng.Float64(), rng.NormFloat64()))
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		ds := NewDenseComplexSolver(n)
		sp := NewSparseComplexSolver(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v := a.At(i, j); v != 0 {
					ds.Addto(i, j, v)
					sp.Addto(i, j, v)
				}
			}
		}
		if err := ds.Factor(); err != nil {
			continue
		}
		if err := sp.Factor(); err != nil {
			t.Fatalf("trial %d: sparse Factor: %v", trial, err)
		}
		xd := make([]complex128, n)
		xs := make([]complex128, n)
		if err := ds.SolveInto(xd, b); err != nil {
			t.Fatal(err)
		}
		if err := sp.SolveInto(xs, b); err != nil {
			t.Fatal(err)
		}
		for i := range xd {
			scale := math.Max(math.Sqrt(sqmag(xd[i])), 1)
			if d := math.Sqrt(sqmag(xd[i]-xs[i])) / scale; d > 1e-9 {
				t.Fatalf("trial %d: complex dense/sparse disagree at %d: %v vs %v", trial, i, xd[i], xs[i])
			}
		}
	}
}

// TestDenseComplexSolverMatchesCSolve pins the split Factor/SolveInto
// dense complex path to the historical fused elimination bit-for-bit.
func TestDenseComplexSolverMatchesCSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 9
	for trial := 0; trial < 10; trial++ {
		a := NewCMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					a.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
				}
			}
			a.Addto(i, i, complex(1+rng.Float64(), 0))
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want, err := CSolve(a, b)
		if err != nil {
			continue
		}
		ds := NewDenseComplexSolver(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v := a.At(i, j); v != 0 {
					ds.Addto(i, j, v)
				}
			}
		}
		if err := ds.Factor(); err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, n)
		if err := ds.SolveInto(got, b); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(real(want[i])) != math.Float64bits(real(got[i])) ||
				math.Float64bits(imag(want[i])) != math.Float64bits(imag(got[i])) {
				t.Fatalf("trial %d: split solver differs from CSolve at %d: %v vs %v", trial, i, want[i], got[i])
			}
		}
	}
}

func TestMinDegreeOrderProperties(t *testing.T) {
	// Arrow matrix: dense first row/column + diagonal. Natural order
	// fills completely; minimum degree must defer the hub (node 0) to
	// the end and keep the factorization fill-free.
	n := 16
	sp := NewSparseSolver(n)
	for i := 0; i < n; i++ {
		sp.Addto(i, i, 4)
		if i > 0 {
			sp.Addto(0, i, 1)
			sp.Addto(i, 0, 1)
		}
	}
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	st := sp.Stats()
	// Fill-free: factors hold exactly the lower+upper halves of the
	// arrow (NNZ + n accounts for the duplicated diagonal in L's
	// implicit units vs U's stored diagonal).
	if st.FillNNZ > st.NNZ+n {
		t.Fatalf("arrow matrix filled in: NNZ=%d FillNNZ=%d", st.NNZ, st.FillNNZ)
	}
	b := NewVector(n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	x := NewVector(n)
	if err := sp.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	// Spot-check against the dense solve.
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 4)
		if i > 0 {
			a.Set(0, i, 1)
			a.Set(i, 0, 1)
		}
	}
	xd, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(x, xd); d > 1e-12 {
		t.Fatalf("arrow solve disagrees with dense: %g", d)
	}

	// Determinism: same input twice gives the identical permutation.
	m := newSPMatrix[float64](4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 0}, {1, 1}, {2, 2}, {3, 3}} {
		m.addto(e[0], e[1], 1)
	}
	m.compile()
	p1 := minDegreeOrder(m.n, m.colp, m.rowi)
	p2 := minDegreeOrder(m.n, m.colp, m.rowi)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("minDegreeOrder not deterministic: %v vs %v", p1, p2)
		}
	}
}

// TestSparseComplexWorkspace checks the symbolic/numeric split's sharing
// contract: numeric workspaces cloned from one factored solver must
// reproduce the parent's refactor-and-solve results bit-for-bit, for any
// distribution of points over workspaces, including concurrent use.
func TestSparseComplexWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 13
	type entry struct{ i, j int }
	var pat []entry
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 || j == (i+1)%n || i == j {
				pat = append(pat, entry{i, j})
			}
		}
	}
	sp := NewSparseComplexSolver(n)
	stamp := func(scale float64) {
		sp.Reset()
		for _, e := range pat {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			if e.i == e.j || e.j == (e.i+1)%n {
				v += complex(3*scale, 0)
			}
			sp.Addto(e.i, e.j, v)
		}
	}
	stamp(1)
	base := sp.CaptureValues(nil)
	stamp(0.5)
	slope := sp.CaptureValues(nil)
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	ts := []float64{0, 0.25, 1, 3, 10, 100}
	// Reference: serial refactor-and-solve through the parent solver.
	ref := make([][]complex128, len(ts))
	for p, tv := range ts {
		if !sp.LoadValues(base, slope, tv) {
			t.Fatal("LoadValues rejected captured snapshot")
		}
		if err := sp.Factor(); err != nil {
			t.Fatalf("t=%g: %v", tv, err)
		}
		ref[p] = make([]complex128, n)
		if err := sp.SolveInto(ref[p], b); err != nil {
			t.Fatal(err)
		}
	}
	// Workspaces: same points fanned over three concurrent clones.
	if !sp.LoadValues(base, slope, ts[0]) {
		t.Fatal("LoadValues rejected captured snapshot")
	}
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	var workers []*SparseComplexWorkspace
	for range 3 {
		ws, err := sp.BindWorkspace(nil)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, ws)
	}
	got := make([][]complex128, len(ts))
	errs := make([]error, len(workers))
	done := make(chan int, len(workers))
	for w, ws := range workers {
		go func(w int, ws *SparseComplexWorkspace) {
			defer func() { done <- w }()
			for p := w; p < len(ts); p += len(workers) {
				if !ws.LoadValues(base, slope, ts[p]) {
					errs[w] = errors.New("workspace LoadValues rejected snapshot")
					return
				}
				if err := ws.Factor(); err != nil {
					errs[w] = err
					return
				}
				x := make([]complex128, n)
				if err := ws.SolveInto(x, b); err != nil {
					errs[w] = err
					return
				}
				got[p] = x
			}
		}(w, ws)
	}
	for range workers {
		<-done
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for p := range ts {
		for i := range ref[p] {
			if math.Float64bits(real(ref[p][i])) != math.Float64bits(real(got[p][i])) ||
				math.Float64bits(imag(ref[p][i])) != math.Float64bits(imag(got[p][i])) {
				t.Fatalf("t=%g: workspace solve differs at %d: %v vs %v", ts[p], i, ref[p][i], got[p][i])
			}
		}
	}
	// Counters flow back through Absorb.
	before := sp.Stats()
	var fact, solv int64
	for _, ws := range workers {
		st := ws.Stats()
		fact += st.Factorizations
		solv += st.Solves
		sp.Absorb(st)
	}
	if fact != int64(len(ts)) || solv != int64(len(ts)) {
		t.Fatalf("workspace counters = %d/%d, want %d/%d", fact, solv, len(ts), len(ts))
	}
	after := sp.Stats()
	if after.Factorizations != before.Factorizations+fact || after.Solves != before.Solves+solv {
		t.Fatalf("Absorb did not fold counters: %+v -> %+v", before, after)
	}
}

// TestSparseComplexWorkspaceRepivot drives one workspace point into the
// repivot fallback and checks it solves correctly without corrupting the
// shared symbolic used by other points.
func TestSparseComplexWorkspaceRepivot(t *testing.T) {
	n := 2
	sp := NewSparseComplexSolver(n)
	sp.Addto(0, 0, 10)
	sp.Addto(0, 1, 1)
	sp.Addto(1, 0, 1)
	sp.Addto(1, 1, 10)
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	base := sp.CaptureValues(nil)
	ws, err := sp.BindWorkspace(nil)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]complex128, len(base))
	// Degenerate values: diagonal collapses, forcing the private full
	// factorization fallback.
	degen := []complex128{1e-12, 1, 1, 1e-12}
	if len(base) != 4 {
		t.Fatalf("unexpected nnz %d", len(base))
	}
	if !ws.LoadValues(degen, zero, 0) {
		t.Fatal("LoadValues rejected")
	}
	if err := ws.Factor(); err != nil {
		t.Fatalf("repivot fallback failed: %v", err)
	}
	x := make([]complex128, n)
	if err := ws.SolveInto(x, []complex128{1, 2}); err != nil {
		t.Fatal(err)
	}
	if sqmag(x[0]-2) > 1e-18 || sqmag(x[1]-1) > 1e-18 {
		t.Fatalf("x = %v, want ~[2 1]", x)
	}
	if ws.Stats().Symbolic != 1 {
		t.Fatalf("expected private symbolic fallback, got %+v", ws.Stats())
	}
	// The same workspace returns to the shared fast path on good values.
	if !ws.LoadValues(base, zero, 0) {
		t.Fatal("LoadValues rejected")
	}
	if err := ws.Factor(); err != nil {
		t.Fatal(err)
	}
	if err := ws.SolveInto(x, []complex128{11, 11}); err != nil {
		t.Fatal(err)
	}
	if sqmag(x[0]-1) > 1e-18 || sqmag(x[1]-1) > 1e-18 {
		t.Fatalf("x = %v, want ~[1 1]", x)
	}
	if ws.Stats().Symbolic != 1 {
		t.Fatalf("good values should not refactor symbolically: %+v", ws.Stats())
	}
}
