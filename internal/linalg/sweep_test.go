package linalg

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
)

// refCrefactorAffine is the per-point affine refactorization the block
// kernel replaced, kept verbatim as the oracle every lane is pinned to.
func refCrefactorAffine(nm *spNumeric[complex128], a *spMatrix[complex128], base, slope []complex128, tt float64) error {
	sym := nm.sym
	n := sym.n
	w := nm.w
	lp, li := sym.lp, sym.li
	up, ui := sym.up, sym.ui
	lx, ux := nm.lx, nm.ux
	pd := nm.pd
	scat, q := sym.scat, sym.q
	colp := a.colp
	for k := 0; k < n; k++ {
		for t := colp[q[k]]; t < colp[q[k]+1]; t++ {
			sl := slope[t]
			w[scat[t]] = base[t] + complex(real(sl)*tt, imag(sl)*tt)
		}
		for t := up[k]; t < up[k+1]-1; t++ {
			j := int(ui[t])
			xj := w[j]
			ux[t] = xj
			w[j] = 0
			for s := lp[j]; s < lp[j+1]; s++ {
				w[li[s]] -= lx[s] * xj
			}
		}
		piv := w[k]
		w[k] = 0
		pm := sqmag(piv)
		if pm == 0 || math.IsNaN(pm) {
			nm.clearW()
			return &PivotError{Index: int(q[k]), Err: ErrSingular}
		}
		d := newPivotDiv(piv)
		colmax := pm
		for s := lp[k]; s < lp[k+1]; s++ {
			wv := w[li[s]]
			w[li[s]] = 0
			if v := sqmag(wv); v > colmax {
				colmax = v
			}
			lx[s] = d.div(wv, piv)
		}
		if pm < refactorGuard2*colmax {
			nm.clearW()
			return errRepivot
		}
		ux[up[k+1]-1] = piv
		pd[k] = d
	}
	return nil
}

// refCsolveInto is the per-point complex triangular solve the block
// kernel replaced, kept verbatim as the oracle.
func refCsolveInto(nm *spNumeric[complex128], x, b []complex128) {
	sym := nm.sym
	n := sym.n
	sx := nm.sx
	pinv, q := sym.pinv, sym.q
	lp, li := sym.lp, sym.li
	up, ui := sym.up, sym.ui
	lx, ux := nm.lx, nm.ux
	pd := nm.pd
	for i := 0; i < n; i++ {
		sx[pinv[i]] = b[i]
	}
	for j := 0; j < n; j++ {
		xj := sx[j]
		if xj == 0 {
			continue
		}
		for t := lp[j]; t < lp[j+1]; t++ {
			sx[li[t]] -= lx[t] * xj
		}
	}
	for j := n - 1; j >= 0; j-- {
		xj := pd[j].div(sx[j], ux[up[j+1]-1])
		sx[j] = xj
		if xj == 0 {
			continue
		}
		for t := up[j]; t < up[j+1]-1; t++ {
			sx[ui[t]] -= ux[t] * xj
		}
	}
	for j := 0; j < n; j++ {
		x[q[j]] = sx[j]
	}
}

// refPoint runs one sweep point the per-point way: the verbatim affine
// refactorization against the shared symbolic, its private full
// factorization when the pivots degenerate, and the verbatim solve. It
// returns the full solution and whether the fallback ran.
func refPoint(sp *SparseComplexSolver, base, slope []complex128, t float64, b []complex128) (x []complex128, repivot bool, err error) {
	sym := sp.lu.sym
	n := sym.n
	nm := &spNumeric[complex128]{
		sym: sym,
		lx:  make([]complex128, len(sym.li)),
		ux:  make([]complex128, len(sym.ui)),
		pd:  make([]pivotDiv, n),
		w:   make([]complex128, n),
		sx:  make([]complex128, n),
	}
	x = make([]complex128, n)
	err = refCrefactorAffine(nm, sp.a, base, slope, t)
	if err == nil {
		refCsolveInto(nm, x, b)
		return x, false, nil
	}
	if !errors.Is(err, errRepivot) {
		return nil, false, err
	}
	a := &spMatrix[complex128]{n: n, compiled: true, colp: sp.a.colp, rowi: sp.a.rowi, vals: make([]complex128, len(base))}
	for k, sl := range slope {
		a.vals[k] = base[k] + complex(real(sl)*t, imag(sl)*t)
	}
	full := newSPLU[complex128](n)
	full.q = sym.q
	if err := full.factor(a); err != nil {
		return nil, true, err
	}
	refCsolveInto(full.num, x, b)
	return x, true, nil
}

// signedZero returns +0 or −0 at random.
func signedZero(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return math.Copysign(0, -1)
	}
	return 0
}

// mnaValue draws a complex value shaped like an MNA stamp: general, pure
// real (a conductance) or pure imaginary (a susceptance), the missing
// component a signed zero; with zeroOK, also an all-zero value.
func mnaValue(rng *rand.Rand, zeroOK bool) complex128 {
	x, y := rng.NormFloat64(), rng.NormFloat64()
	switch rng.Intn(5) {
	case 0:
		return complex(x, signedZero(rng))
	case 1:
		return complex(signedZero(rng), y)
	case 2:
		if zeroOK {
			return complex(signedZero(rng), signedZero(rng))
		}
	}
	return complex(x, y)
}

// familyShape is the structure sweepFamily builds into a random family.
type familyShape struct {
	// split: rows from split on never reference earlier columns, so with
	// zero sources there their solution entries are signed zeros in
	// every member, whose signs hang on every zero skip of the solve.
	split int
	// detach: rows whose couplings to rows outside the set vanish
	// exactly at t = 3; with zero sources they solve to signed zeros in
	// that member only, so a block mixes zero and nonzero lanes.
	detach []int
	// zeroCol is exactly zero at t = 1 (a singular member), and tinyCol's
	// diagonal shrinks to ~1e-9 of its column at t = 2 (a repivot); −1
	// for none.
	zeroCol, tinyCol int
	// mna draws real base values (conductances) and imaginary slopes
	// (capacitances), each with a signed-zero other half, so members at
	// t = ±0 are real systems whose solutions have signed-zero
	// imaginary parts.
	mna bool
}

// sweepFamily builds a random sparse complex affine family base + t·slope
// of order n with the given shape on an MNA-like pattern (dominant
// diagonal at t = 0, a coupling ring, random off-diagonal fill,
// stamp-shaped values with signed zeros) and factors the solver at
// t = 0.
func sweepFamily(rng *rand.Rand, n int, sh familyShape) (sp *SparseComplexSolver, base, slope []complex128) {
	sp = NewSparseComplexSolver(n)
	inDetach := make([]bool, n)
	for _, r := range sh.detach {
		inDetach[r] = true
	}
	type entry struct{ i, j int }
	var pat []entry
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i >= sh.split && j < sh.split {
				continue
			}
			ring := j == i+1 || i == j+1 || (i == sh.split && j == n-1) || (i == n-1 && j == sh.split)
			if i == j || ring || rng.Float64() < 0.25 {
				pat = append(pat, entry{i, j})
			}
		}
	}
	bv := map[entry]complex128{}
	sv := map[entry]complex128{}
	for _, e := range pat {
		if sh.mna {
			bv[e] = complex(rng.NormFloat64(), signedZero(rng))
			sv[e] = complex(signedZero(rng), rng.NormFloat64())
		} else {
			bv[e] = mnaValue(rng, true)
			sv[e] = mnaValue(rng, true)
		}
		if e.i == e.j {
			bv[e] += complex(4+float64(n), 0)
		}
	}
	for _, e := range pat {
		switch {
		case e.j == sh.zeroCol:
			sv[e] = -bv[e] // t = 1: base + (−base) = 0 exactly
		case e.i == e.j && e.j == sh.tinyCol:
			sv[e] = -bv[e] * complex((1-1e-9)/2, 0) // t = 2: diagonal ≈ 1e-9·base
		case inDetach[e.i] && !inDetach[e.j]:
			// t = 3: 3k + (−k)·3 = 0 exactly for small integers k.
			k, m := float64(1+rng.Intn(5)), float64(rng.Intn(5)-2)
			bv[e], sv[e] = complex(3*k, 3*m), complex(-k, -m)
		}
	}
	stamp := func(v map[entry]complex128) []complex128 {
		sp.Reset()
		for _, e := range pat {
			sp.Addto(e.i, e.j, v[e])
		}
		return sp.CaptureValues(nil)
	}
	slope = stamp(sv)
	base = stamp(bv)
	if err := sp.Factor(); err != nil {
		panic(err)
	}
	return sp, base, slope
}

func sameC(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestSweepKernelMatchesPerPoint pins the block kernel to the per-point
// kernels it replaced: for random sparse families, every lane count up
// to and past a sweep block, blocks mixing regular, repivoting and
// singular lanes, and right-hand sides with +0 and −0 entries, each
// lane's observed value is bit-identical to refactoring and solving that
// point alone, a failing lane reports the per-point error, and the
// counters are those of a per-point loop over the accounted lanes.
func TestSweepKernelMatchesPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(20010618))
	var singular, repivots int // lanes seen on each failure path
	for trial := 0; trial < 32; trial++ {
		n := 4 + rng.Intn(13)
		sh := familyShape{
			split:   n - rng.Intn(n/2), // the last n − split rows see zero sources
			zeroCol: rng.Intn(n),
			tinyCol: rng.Intn(n),
			mna:     trial%2 == 1,
		}
		perm := rng.Perm(sh.split)
		sh.detach = perm[1 : 1+rng.Intn(min(3, sh.split-1)+1)]
		sp, base, slope := sweepFamily(rng, n, sh)
		b := make([]complex128, n)
		for i := range b {
			b[i] = mnaValue(rng, true)
			if i >= sh.split || slices.Contains(sh.detach, i) {
				b[i] = complex(signedZero(rng), signedZero(rng))
			}
		}
		b[perm[0]] = 1 // at least one source
		ws, err := sp.BindWorkspace(nil)
		if err != nil {
			t.Fatal(err)
		}
		for lanes := 1; lanes <= 9; lanes++ {
			ts := make([]float64, lanes)
			for p := range ts {
				switch rng.Intn(9) {
				case 0:
					ts[p] = 1 // singular member
				case 1:
					ts[p] = 2 // repivoting member
				case 8:
					ts[p] = 3 // detached rows solve to zeros
				case 2:
					ts[p] = signedZero(rng)
				case 3:
					ts[p] = -math.Ldexp(rng.Float64(), rng.Intn(8)-4)
				default:
					ts[p] = math.Ldexp(rng.Float64(), rng.Intn(20)-10)
				}
			}
			type point struct {
				x       []complex128
				repivot bool
				err     error
			}
			ref := make([]point, lanes)
			for p, tv := range ts {
				x, rp, err := refPoint(sp, base, slope, tv, b)
				ref[p] = point{x, rp, err}
				if err != nil {
					singular++
				} else if rp {
					repivots++
				}
			}
			for node := 0; node < n; node++ {
				// A failing lane ends the block; the lanes after it run
				// as the next block, so every lane gets checked.
				for lo := 0; lo < lanes; {
					out := make([]complex128, lanes-lo)
					done, st, err := ws.SolveNodes(base, slope, ts[lo:], b, node, out)
					var wantSym int64
					for p := lo; p < lo+done; p++ {
						if ref[p].err != nil {
							t.Fatalf("trial %d lanes %d node %d: lane %d solved, per-point error %v", trial, lanes, node, p, ref[p].err)
						}
						if !sameC(out[p-lo], ref[p].x[node]) {
							t.Fatalf("trial %d lanes %d node %d lane %d (t=%g): %v, per-point %v",
								trial, lanes, node, p, ts[p], out[p-lo], ref[p].x[node])
						}
						if ref[p].repivot {
							wantSym++
						}
					}
					wantFact, wantSolves := int64(done), int64(done)
					if err != nil {
						at := lo + done
						if ref[at].err == nil || err.Error() != ref[at].err.Error() {
							t.Fatalf("trial %d lanes %d node %d lane %d: error %v, per-point %v", trial, lanes, node, at, err, ref[at].err)
						}
						var pe *PivotError
						if !errors.As(err, &pe) {
							t.Fatalf("lane error %v is not a PivotError", err)
						}
						wantFact++
						if ref[at].repivot {
							wantSym++
						}
						done++
					} else if done != lanes-lo {
						t.Fatalf("done = %d without error, want %d", done, lanes-lo)
					}
					if st.Factorizations != wantFact || st.Solves != wantSolves || st.Symbolic != wantSym {
						t.Fatalf("trial %d lanes %d node %d: counters %d/%d/%d, want %d/%d/%d", trial, lanes, node,
							st.Factorizations, st.Solves, st.Symbolic, wantFact, wantSolves, wantSym)
					}
					lo += done
				}
			}
		}
	}
	// The fixture must really reach both failure paths, or this test
	// would silently cover regular lanes only.
	if singular == 0 || repivots == 0 {
		t.Fatalf("fixture hit %d singular and %d repivoting lanes; want both > 0", singular, repivots)
	}
}

// TestSolveNodeMatchesSolveInto checks the node-only solve against the
// full solve for every node, bit for bit, and its solve counter.
func TestSolveNodeMatchesSolveInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sp, base, slope := sweepFamily(rng, 11, familyShape{split: 8, detach: []int{2}, zeroCol: -1, tinyCol: -1})
	if !sp.LoadValues(base, slope, 0.37) {
		t.Fatal("LoadValues rejected snapshot")
	}
	if err := sp.Factor(); err != nil {
		t.Fatal(err)
	}
	b := make([]complex128, 11)
	b[2], b[7] = 1, complex(0, -2)
	x := make([]complex128, 11)
	if err := sp.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	before := sp.Stats().Solves
	for node := range x {
		v, err := sp.SolveNode(b, node)
		if err != nil {
			t.Fatal(err)
		}
		if !sameC(v, x[node]) {
			t.Fatalf("SolveNode(%d) = %v, SolveInto %v", node, v, x[node])
		}
	}
	if got := sp.Stats().Solves - before; got != int64(len(x)) {
		t.Fatalf("SolveNode counted %d solves for %d calls", got, len(x))
	}
	if _, err := sp.SolveNode(b, len(x)); err == nil {
		t.Fatal("SolveNode accepted an out-of-range node")
	}
}

// TestPivotDivMatchesNativeDivision pins the hoisted Smith division to
// Go's complex128 division bit for bit, special values included.
func TestPivotDivMatchesNativeDivision(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf, nan := math.Inf(1), math.NaN()
	specials := []float64{0, negZero, 1, -1, 3.5, -2.25, 1e-300, -1e-310, 1e300, -1e308, inf, -inf, nan}
	rng := rand.New(rand.NewSource(11))
	var vals []complex128
	for _, re := range specials {
		for _, im := range specials {
			vals = append(vals, complex(re, im))
		}
	}
	for i := 0; i < 200; i++ {
		vals = append(vals, complex(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)),
			rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20))))
	}
	for _, d := range vals {
		pd := newPivotDiv(d)
		for _, num := range vals {
			got, want := pd.div(num, d), num/d
			if !sameC(got, want) && !(cmplx.IsNaN(got) && cmplx.IsNaN(want) && nanBitsAgree(got, want)) {
				t.Fatalf("%v / %v: pivotDiv %v, native %v", num, d, got, want)
			}
		}
	}
}

// nanBitsAgree accepts results whose NaN components sit in the same
// places; NaN payloads are not part of the contract.
func nanBitsAgree(a, b complex128) bool {
	same := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return same(real(a), real(b)) && same(imag(a), imag(b))
}
