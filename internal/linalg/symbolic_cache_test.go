package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// TestSymbolicCacheAdoptBitIdentical checks the cache's core contract:
// a fresh solver adopting a cached symbolic factorization produces
// bit-identical solutions to an uncached solver doing its own symbolic
// analysis, while doing zero symbolic work itself.
func TestSymbolicCacheAdoptBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 12
	a, b := randSystem(rng, n, 0.3)

	// Reference: uncached full factorization.
	ref := NewSparseSolver(n)
	stampDense(ref, a)
	if err := ref.Factor(); err != nil {
		t.Fatal(err)
	}
	xRef := NewVector(n)
	if err := ref.SolveInto(xRef, b); err != nil {
		t.Fatal(err)
	}

	// Seed the cache with an identical system, then freeze.
	cache := NewSymbolicCache()
	seed := NewSparseSolver(n)
	seed.SetSymbolicCache(cache)
	stampDense(seed, a)
	if err := seed.Factor(); err != nil {
		t.Fatal(err)
	}
	cache.Freeze()

	// Adopting solver: same stamps, symbolic work skipped entirely.
	sp := NewSparseSolver(n)
	sp.SetSymbolicCache(cache)
	stampDense(sp, a)
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	x := NewVector(n)
	if err := sp.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xRef[i]) {
			t.Fatalf("adopted solve not bit-identical at %d: %x vs %x", i, x[i], xRef[i])
		}
	}
	st := sp.Stats()
	if st.Symbolic != 0 {
		t.Fatalf("adopting solver did symbolic work: %+v", st)
	}
	if st.Factorizations != 1 || st.FillNNZ == 0 || st.NNZ == 0 {
		t.Fatalf("adopting solver stats implausible: %+v", st)
	}
}

// TestSymbolicCachePatternMismatch checks that a solver whose assembled
// pattern differs from every cached entry falls back to its own symbolic
// factorization and still solves correctly — and that a frozen cache
// does not learn the new pattern.
func TestSymbolicCachePatternMismatch(t *testing.T) {
	n := 10
	// Deterministic tridiagonal pattern, so the corner entry (0, n-1)
	// is guaranteed to be outside it.
	tridiag := func(s Stamper) {
		for i := 0; i < n; i++ {
			s.Addto(i, i, 4)
			if i > 0 {
				s.Addto(i, i-1, -1)
				s.Addto(i-1, i, -1)
			}
		}
	}
	b := NewVector(n)
	for i := range b {
		b[i] = float64(i + 1)
	}

	cache := NewSymbolicCache()
	seed := NewSparseSolver(n)
	seed.SetSymbolicCache(cache)
	tridiag(seed)
	if err := seed.Factor(); err != nil {
		t.Fatal(err)
	}
	cache.Freeze()

	solveExtra := func() SolverStats {
		sp := NewSparseSolver(n)
		sp.SetSymbolicCache(cache)
		tridiag(sp)
		sp.Addto(0, n-1, 0.5) // outside the seeded pattern
		if err := sp.Factor(); err != nil {
			t.Fatal(err)
		}
		x := NewVector(n)
		if err := sp.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		// Verify against a dense solve of the same modified system.
		d := NewDenseSolver(n)
		tridiag(d)
		d.Addto(0, n-1, 0.5)
		if err := d.Factor(); err != nil {
			t.Fatal(err)
		}
		xd := NewVector(n)
		if err := d.SolveInto(xd, b); err != nil {
			t.Fatal(err)
		}
		if diff := maxRelDiff(x, xd); diff > 1e-9 {
			t.Fatalf("mismatch-pattern solve off by %g", diff)
		}
		return sp.Stats()
	}
	if st := solveExtra(); st.Symbolic != 1 {
		t.Fatalf("expected 1 symbolic factorization on cache miss, got %+v", st)
	}
	// The frozen cache must not have stored the new pattern: a second
	// solver with the same extra entry still pays its own symbolic.
	if st := solveExtra(); st.Symbolic != 1 {
		t.Fatalf("frozen cache learned a new pattern: %+v", st)
	}
}

// TestSymbolicCacheRepivotFallback seeds the cache with a diagonally
// dominant system, then adopts it for values that degenerate the cached
// pivot order. The adopting solver must detect the degeneration and redo
// a full factorization privately instead of producing garbage.
func TestSymbolicCacheRepivotFallback(t *testing.T) {
	n := 2
	cache := NewSymbolicCache()
	seed := NewSparseSolver(n)
	seed.SetSymbolicCache(cache)
	seed.Addto(0, 0, 10)
	seed.Addto(0, 1, 1)
	seed.Addto(1, 0, 1)
	seed.Addto(1, 1, 10)
	if err := seed.Factor(); err != nil {
		t.Fatal(err)
	}
	cache.Freeze()

	sp := NewSparseSolver(n)
	sp.SetSymbolicCache(cache)
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
	if math.Abs(x[0]-2) > 1e-9 || math.Abs(x[1]-1) > 1e-9 {
		t.Fatalf("x = %v, want ~[2 1]", x)
	}
	if st := sp.Stats(); st.Symbolic != 1 {
		t.Fatalf("expected the repivot fallback to do 1 symbolic factorization: %+v", st)
	}
}

// TestSymbolicCacheComplexFlavor checks that the real and complex
// backends keep separate entries (same order, different scalar flavor)
// and that complex adoption is bit-identical too.
func TestSymbolicCacheComplexFlavor(t *testing.T) {
	n := 6
	stamp := func(s CStamper) {
		for i := 0; i < n; i++ {
			s.Addto(i, i, complex(2+float64(i), 0.3))
			s.Addto(i, (i+1)%n, complex(-1, 0.1*float64(i)))
		}
	}
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(float64(i+1), -0.5)
	}

	ref := NewSparseComplexSolver(n)
	stamp(ref)
	if err := ref.Factor(); err != nil {
		t.Fatal(err)
	}
	xRef := make([]complex128, n)
	if err := ref.SolveInto(xRef, b); err != nil {
		t.Fatal(err)
	}

	cache := NewSymbolicCache()
	seed := NewSparseComplexSolver(n)
	seed.SetSymbolicCache(cache)
	stamp(seed)
	if err := seed.Factor(); err != nil {
		t.Fatal(err)
	}
	// A real seeding with the same order must not collide with the
	// complex entry during pattern adoption.
	seedR := NewSparseSolver(n)
	seedR.SetSymbolicCache(cache)
	for i := 0; i < n; i++ {
		seedR.Addto(i, i, 3)
	}
	if err := seedR.Factor(); err != nil {
		t.Fatal(err)
	}
	cache.Freeze()

	sp := NewSparseComplexSolver(n)
	sp.SetSymbolicCache(cache)
	stamp(sp)
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, n)
	if err := sp.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Float64bits(real(x[i])) != math.Float64bits(real(xRef[i])) ||
			math.Float64bits(imag(x[i])) != math.Float64bits(imag(xRef[i])) {
			t.Fatalf("complex adopted solve not bit-identical at %d: %v vs %v", i, x[i], xRef[i])
		}
	}
	if st := sp.Stats(); st.Symbolic != 0 {
		t.Fatalf("complex adopting solver did symbolic work: %+v", st)
	}
}

// TestRestartReadoptsCachedSymbolic forces a cache-adopting solver into
// the repivot fallback, which leaves it on a private symbolic
// factorization, then restarts it. The next Factor must adopt the
// shared cached symbolic again, with no symbolic work of its own, and
// produce factors and solutions bit-identical to a new solver's.
func TestRestartReadoptsCachedSymbolic(t *testing.T) {
	n := 2
	cache := NewSymbolicCache()
	seed := NewSparseSolver(n)
	seed.SetSymbolicCache(cache)
	stamp := func(s Stamper, a, b, c, d float64) {
		s.Addto(0, 0, a)
		s.Addto(0, 1, b)
		s.Addto(1, 0, c)
		s.Addto(1, 1, d)
	}
	stamp(seed, 10, 1, 1, 10)
	if err := seed.Factor(); err != nil {
		t.Fatal(err)
	}
	cache.Freeze()
	shared := seed.lu.sym

	sp := NewSparseSolver(n)
	sp.SetSymbolicCache(cache)
	stamp(sp, 1e-12, 1, 1, 1e-12) // degenerates the cached pivot order
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	if st := sp.Stats(); st.Symbolic != 1 || sp.lu.sym == shared {
		t.Fatalf("setup: want a private symbolic after the repivot fallback, got %+v", st)
	}

	sp.Restart()
	stamp(sp, 7, 2, 3, 9)
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	if st := sp.Stats(); st.Symbolic != 1 || st.Factorizations != 2 {
		t.Fatalf("restarted solver did symbolic work: %+v", st)
	}
	if sp.lu.sym != shared {
		t.Fatal("restarted solver did not re-adopt the cached symbolic")
	}

	fresh := NewSparseSolver(n)
	fresh.SetSymbolicCache(cache)
	stamp(fresh, 7, 2, 3, 9)
	if err := fresh.Factor(); err != nil {
		t.Fatal(err)
	}
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, fresh solver %v", what, i, got[i], want[i])
			}
		}
	}
	sameBits("L", sp.lu.num.lx, fresh.lu.num.lx)
	sameBits("U", sp.lu.num.ux, fresh.lu.num.ux)
	x, xf := NewVector(n), NewVector(n)
	if err := sp.SolveInto(x, Vector{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := fresh.SolveInto(xf, Vector{1, 2}); err != nil {
		t.Fatal(err)
	}
	sameBits("x", x, xf)
	if got, want := sp.Stats(), fresh.Stats(); got.NNZ != want.NNZ || got.FillNNZ != want.FillNNZ {
		t.Fatalf("gauges after restart %+v, fresh solver %+v", got, want)
	}
}

// TestBindWorkspaceCountsOnlyCurrentSweep reuses one workspace across
// two sweeps, the first of which hits the repivot fallback. Rebound for
// the second sweep, it must report only that sweep's counters, so
// Absorb never folds the first sweep in twice, and solve bit-identically
// to a newly bound workspace.
func TestBindWorkspaceCountsOnlyCurrentSweep(t *testing.T) {
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
	slope := []complex128{1i, 0, 0, 2i}
	degen := []complex128{1e-12, 1, 1, 1e-12}
	b := []complex128{1, 2}
	sweep := func(ws *SparseComplexWorkspace, base []complex128, ts ...float64) [][]complex128 {
		t.Helper()
		var out [][]complex128
		for _, tv := range ts {
			if !ws.LoadValues(base, slope, tv) {
				t.Fatal("LoadValues rejected")
			}
			if err := ws.Factor(); err != nil {
				t.Fatal(err)
			}
			x := make([]complex128, n)
			if err := ws.SolveInto(x, b); err != nil {
				t.Fatal(err)
			}
			out = append(out, x)
		}
		return out
	}

	ws, err := sp.BindWorkspace(nil)
	if err != nil {
		t.Fatal(err)
	}
	sweep(ws, base, 1, 2)
	sweep(ws, degen, 0)
	if st := ws.Stats(); st.Factorizations != 3 || st.Solves != 3 || st.Symbolic != 1 {
		t.Fatalf("first sweep counters %+v", st)
	}

	if again, err := sp.BindWorkspace(ws); err != nil || again != ws {
		t.Fatalf("rebinding returned %p, %v; want the same workspace", again, err)
	}
	got := sweep(ws, base, 3, 4)
	if st := ws.Stats(); st.Factorizations != 2 || st.Solves != 2 || st.Symbolic != 0 {
		t.Fatalf("rebound workspace counters %+v, want only the second sweep's 2/2/0", st)
	}
	fresh, err := sp.BindWorkspace(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sweep(fresh, base, 3, 4)
	for p := range want {
		for i := range want[p] {
			if math.Float64bits(real(got[p][i])) != math.Float64bits(real(want[p][i])) ||
				math.Float64bits(imag(got[p][i])) != math.Float64bits(imag(want[p][i])) {
				t.Fatalf("point %d entry %d: rebound %v, new workspace %v", p, i, got[p][i], want[p][i])
			}
		}
	}
}
