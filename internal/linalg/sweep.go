package linalg

import (
	"errors"
	"math"
)

// This file holds the AC sweep's numeric kernel: a block of frequency
// points of one affine family A(t) = base + t·slope refactored and
// solved together against one shared symbolic factorization. Values are
// lane-interleaved — entry e of lane p sits at e·L+p for a block of L
// lanes — so every index load, pattern walk and bounds check of the
// replay is paid once per block instead of once per point, while each
// lane still runs exactly the per-point arithmetic of crefactorC and the
// complex triangular solve, in the same order. Lanes never mix, so a
// lane's factors and solution are bit-identical to refactoring and
// solving that point alone, whatever the block size.

// Lane outcomes of a block refactorization.
const (
	laneOK uint8 = iota
	laneSingular
	laneRepivot
)

// laneState is one lane's per-column scratch and first failure.
type laneState struct {
	piv        complex128
	pm, colmax float64
	fail       uint8
	failCol    int32 // original column of a singular pivot
}

// crefactorLanes refactors the L = len(ts) members A(ts[p]) of an affine
// family into lane-interleaved factors lx, ux, pd (w is the interleaved
// accumulator and must be all zero; it is left all zero). Lane p runs
// crefactorC's arithmetic on the values base[t] + ts[p]·slope[t],
// computed exactly as SparseComplexSolver.LoadValues computes them. A
// lane whose pivot vanishes or degenerates records its first failure in
// lanes[p] and carries on with values the caller discards.
func crefactorLanes(sym *spSymbolic, colp []int32, base, slope []complex128, ts []float64,
	lx, ux, w []complex128, pd []pivotDiv, lanes []laneState) {
	n := sym.n
	L := len(ts)
	lp, li := sym.lp, sym.li
	up, ui := sym.up, sym.ui
	scat, q := sym.scat, sym.q
	lanes = lanes[:L]
	for p := range lanes {
		lanes[p].fail = laneOK
	}
	for k := 0; k < n; k++ {
		col := q[k]
		for t := colp[col]; t < colp[col+1]; t++ {
			bv, sl := base[t], slope[t]
			wr := w[int(scat[t])*L:][:L]
			for p, tt := range ts {
				wr[p] = bv + complex(real(sl)*tt, imag(sl)*tt)
			}
		}
		// Consume-and-clear, as in crefactorC: the topological emission
		// order guarantees w[j] is fully updated when read.
		for t := up[k]; t < up[k+1]-1; t++ {
			j := int(ui[t])
			wj := w[j*L:][:L]
			xj := ux[int(t)*L:][:L]
			copy(xj, wj)
			clear(wj)
			for s := lp[j]; s < lp[j+1]; s++ {
				wi := w[int(li[s])*L:][:L]
				ls := lx[int(s)*L:][:L]
				for p := range wi {
					wi[p] -= ls[p] * xj[p]
				}
			}
		}
		wk := w[k*L:][:L]
		dk := pd[k*L:][:L]
		for p := range dk {
			ln := &lanes[p]
			piv := wk[p]
			wk[p] = 0
			pm := sqmag(piv)
			if (pm == 0 || math.IsNaN(pm)) && ln.fail == laneOK {
				ln.fail, ln.failCol = laneSingular, col
			}
			ln.piv, ln.pm, ln.colmax = piv, pm, pm
			dk[p] = newPivotDiv(piv)
		}
		for s := lp[k]; s < lp[k+1]; s++ {
			wi := w[int(li[s])*L:][:L]
			ls := lx[int(s)*L:][:L]
			for p := range wi {
				ln := &lanes[p]
				wv := wi[p]
				wi[p] = 0
				if v := sqmag(wv); v > ln.colmax {
					ln.colmax = v
				}
				ls[p] = dk[p].div(wv, ln.piv)
			}
		}
		uk := ux[int(up[k+1]-1)*L:][:L]
		for p := range uk {
			ln := &lanes[p]
			if ln.pm < refactorGuard2*ln.colmax && ln.fail == laneOK {
				ln.fail = laneRepivot
			}
			uk[p] = ln.piv
		}
	}
}

// csolveLanes runs the complex triangular solve of L interleaved lanes
// on the right-hand side b, shared by every lane: the forward
// substitution in full, the backward substitution only down to pivotal
// position stop. Afterwards sx[j·L+p] holds lane p's permuted solution
// entry j for every j ≥ stop — the solution component of original
// variable q[j]. Per lane this is the hoisted-division solve with its
// zero-entry skips, so the entries it computes are bit-identical to a
// full solve's; stop = 0 is the full solve.
func csolveLanes(sym *spSymbolic, lx, ux []complex128, pd []pivotDiv, sx []complex128, L int, b []complex128, stop int) {
	n := sym.n
	pinv := sym.pinv
	lp, li := sym.lp, sym.li
	up, ui := sym.up, sym.ui
	for i := 0; i < n; i++ {
		v := b[i]
		r := sx[int(pinv[i])*L:][:L]
		for p := range r {
			r[p] = v
		}
	}
	for j := 0; j < n; j++ {
		xj := sx[j*L:][:L]
		nz := 0
		for _, v := range xj {
			if v != 0 {
				nz++
			}
		}
		if nz == 0 {
			continue
		}
		for t := lp[j]; t < lp[j+1]; t++ {
			si := sx[int(li[t])*L:][:L]
			lt := lx[int(t)*L:][:L]
			if nz == L {
				for p := range si {
					si[p] -= lt[p] * xj[p]
				}
				continue
			}
			for p := range si {
				if xj[p] != 0 {
					si[p] -= lt[p] * xj[p]
				}
			}
		}
	}
	for j := n - 1; j >= stop; j-- {
		xj := sx[j*L:][:L]
		dj := pd[j*L:][:L]
		uj := ux[int(up[j+1]-1)*L:][:L]
		nz := 0
		for p := range xj {
			v := dj[p].div(xj[p], uj[p])
			xj[p] = v
			if v != 0 {
				nz++
			}
		}
		// Updates from position stop only reach positions below it.
		if nz == 0 || j == stop {
			continue
		}
		for t := up[j]; t < up[j+1]-1; t++ {
			si := sx[int(ui[t])*L:][:L]
			ut := ux[int(t)*L:][:L]
			if nz == L {
				for p := range si {
					si[p] -= ut[p] * xj[p]
				}
				continue
			}
			for p := range si {
				if xj[p] != 0 {
					si[p] -= ut[p] * xj[p]
				}
			}
		}
	}
}

// csolveIntoC is the complex triangular solve of one system with the
// hoisted division constants.
func csolveIntoC(nm *spNumeric[complex128], x, b []complex128) {
	csolveLanes(nm.sym, nm.lx, nm.ux, nm.pd, nm.sx, 1, b, 0)
	for j, c := range nm.sym.q {
		x[c] = nm.sx[j]
	}
}

// pivotalPos returns the pivotal position whose solution entry is
// original variable v: the j with q[j] = v.
func (sym *spSymbolic) pivotalPos(v int) int {
	for j, c := range sym.q {
		if int(c) == v {
			return j
		}
	}
	return -1
}

// csolveNodeC solves one system and returns only x[node], stopping the
// backward substitution once that entry is known.
func csolveNodeC(nm *spNumeric[complex128], b []complex128, node int) complex128 {
	pos := nm.sym.pivotalPos(node)
	csolveLanes(nm.sym, nm.lx, nm.ux, nm.pd, nm.sx, 1, b, pos)
	return nm.sx[pos]
}

// SolveNode solves A x = b with the current factorization like SolveInto
// but returns only x[node]: the backward substitution stops once that
// entry is known, and no solution vector is written. The value is
// bit-identical to SolveInto's x[node], and it counts as one solve.
func (s *SparseComplexSolver) SolveNode(b []complex128, node int) (complex128, error) {
	if len(b) != s.a.n || node < 0 || node >= s.a.n {
		return 0, errDimension
	}
	if !s.lu.valid {
		return 0, errors.New("linalg: SparseComplexSolver.SolveNode before successful Factor")
	}
	s.stats.Solves++
	return csolveNodeC(s.lu.num, b, node), nil
}

// SparseComplexWorkspace is a per-goroutine numeric companion to a
// SparseComplexSolver for sweeps over an affine family A(t) = base +
// t·slope (the AC system G + jωC over ω). It shares the parent's
// immutable CSC pattern and symbolic factorization but owns its factors
// and scratch, so any number of workspaces can run blocks of the same
// family concurrently. Every block replays the shared symbolic from
// scratch (no pivot history), so results are independent of how points
// are grouped into blocks and blocks over workspaces; a point whose
// pivots degenerate falls back to a private full factorization without
// touching the shared state. Workspaces are invalidated by any
// structural change or symbolic refactorization in the parent — rebind
// them with BindWorkspace after Factor.
type SparseComplexWorkspace struct {
	sym *spSymbolic
	// a shares colp/rowi with the parent; its vals hold the one point
	// materialized for the full-factorization fallback.
	a spMatrix[complex128]
	// buf backs the lane-interleaved lx, ux and sx; w is the
	// interleaved accumulator. crefactorLanes clears every entry it
	// writes, failed lanes included, so w stays all zero between blocks.
	buf, w []complex128
	pd     []pivotDiv
	lanes  []laneState
	full   *spLU[complex128] // lazy private fallback when pivots degenerate
}

// BindWorkspace binds ws to the solver's current pattern and symbolic
// factorization and returns it; a nil ws allocates a new workspace. A
// rebound workspace keeps its buffers but is otherwise indistinguishable
// from a new one. The solver must have been factored successfully first.
func (s *SparseComplexSolver) BindWorkspace(ws *SparseComplexWorkspace) (*SparseComplexWorkspace, error) {
	if !s.lu.valid {
		return nil, errors.New("linalg: BindWorkspace before successful Factor")
	}
	if ws == nil {
		ws = new(SparseComplexWorkspace)
	}
	ws.sym = s.lu.sym
	ws.a = spMatrix[complex128]{
		n:        s.a.n,
		compiled: true,
		colp:     s.a.colp,
		rowi:     s.a.rowi,
		vals:     ws.a.vals[:0],
	}
	return ws, nil
}

// size points the workspace's interleaved arrays at storage for L lanes.
func (ws *SparseComplexWorkspace) size(L int) (lx, ux, sx []complex128) {
	n, sym := ws.sym.n, ws.sym
	nl, nu := len(sym.li), len(sym.ui)
	if need := L * (nl + nu + n); cap(ws.buf) < need {
		ws.buf = make([]complex128, need)
	}
	if cap(ws.w) < L*n {
		ws.w = make([]complex128, L*n)
	}
	ws.w = ws.w[:L*n]
	if cap(ws.pd) < L*n {
		ws.pd = make([]pivotDiv, L*n)
	}
	ws.pd = ws.pd[:L*n]
	if cap(ws.lanes) < L {
		ws.lanes = make([]laneState, L)
	}
	ws.lanes = ws.lanes[:L]
	buf := ws.buf
	return buf[: L*nl : L*nl], buf[L*nl : L*(nl+nu) : L*(nl+nu)], buf[L*(nl+nu) : L*(nl+nu+n)]
}

// SolveNodes refactors the family members A(ts[p]) = base + ts[p]·slope
// as one block of len(ts) lanes, solves each against b and writes x[node]
// of member p to out[p]. Lanes are accounted in order, as a per-point
// loop would run them: done lanes succeeded, and when err is non-nil
// lane done failed and the lanes after it were not accounted (their out
// entries are unspecified). st counts the accounted lanes' work — one
// factorization per lane, one solve per solved lane, one symbolic
// factorization per private fallback — for SparseComplexSolver.Absorb.
//
// Each lane's value is bit-identical to LoadValues(base, slope, ts[p]),
// Factor and SolveInto on the parent with its current pivot order, or,
// when that order degenerates for the lane, to a private full
// factorization under the same column order. base and slope must be
// captures of the parent's compiled structure and stay unmodified for
// the call; they may be shared read-only across workspaces.
func (ws *SparseComplexWorkspace) SolveNodes(base, slope []complex128, ts []float64, b []complex128, node int, out []complex128) (done int, st SolverStats, err error) {
	if ws.sym == nil {
		return 0, st, errors.New("linalg: SparseComplexWorkspace.SolveNodes before BindWorkspace")
	}
	n, nnz := ws.a.n, len(ws.a.rowi)
	if len(base) != nnz || len(slope) != nnz || len(b) != n || node < 0 || node >= n || len(out) < len(ts) {
		return 0, st, errDimension
	}
	L := len(ts)
	if L == 0 {
		return 0, st, nil
	}
	lx, ux, sx := ws.size(L)
	crefactorLanes(ws.sym, ws.a.colp, base, slope, ts, lx, ux, ws.w, ws.pd, ws.lanes)
	pos := ws.sym.pivotalPos(node)
	csolveLanes(ws.sym, lx, ux, ws.pd, sx, L, b, pos)
	copy(out[:L], sx[pos*L:][:L])
	fill := len(ws.sym.li) + len(ws.sym.ui)
	for p := 0; p < L; p++ {
		st.Factorizations++
		switch ln := &ws.lanes[p]; ln.fail {
		case laneSingular:
			return p, st, &PivotError{Index: int(ln.failCol), Err: ErrSingular}
		case laneRepivot:
			st.Symbolic++
			v, err := ws.fallback(base, slope, ts[p], b, node)
			if err != nil {
				return p, st, err
			}
			out[p] = v
			st.FillNNZ = max(st.FillNNZ, len(ws.full.sym.li)+len(ws.full.sym.ui))
		default:
			st.FillNNZ = max(st.FillNNZ, fill)
		}
		st.Solves++
	}
	return L, st, nil
}

// fallback factors the single member base + t·slope from scratch under
// the shared column order (with fresh pivoting) and returns x[node].
func (ws *SparseComplexWorkspace) fallback(base, slope []complex128, t float64, b []complex128, node int) (complex128, error) {
	nnz := len(ws.a.rowi)
	if cap(ws.a.vals) < nnz {
		ws.a.vals = make([]complex128, nnz)
	}
	vals := ws.a.vals[:nnz]
	for k, sl := range slope {
		vals[k] = base[k] + complex(real(sl)*t, imag(sl)*t)
	}
	ws.a.vals = vals
	if ws.full == nil || ws.full.n != ws.a.n {
		ws.full = newSPLU[complex128](ws.a.n)
	}
	ws.full.q = ws.sym.q
	if err := ws.full.factor(&ws.a); err != nil {
		return 0, err
	}
	return csolveNodeC(ws.full.num, b, node), nil
}
