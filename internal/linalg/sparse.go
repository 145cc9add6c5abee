package linalg

import (
	"errors"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file implements the sparse linear-solver backend: triplet (COO)
// assembly compiled once into compressed-sparse-column form, a
// fill-reducing minimum-degree ordering, and a left-looking
// Gilbert–Peierls LU with partial pivoting split into a symbolic
// factorization (pattern + pivot order, computed once per topology) and
// a numeric refactorization that replays the stored elimination on new
// values. MNA matrices are ~80% structural zeros and every Newton
// iteration, AC frequency point and transient step re-solves the same
// structure, so the amortized cost per solve is O(flops on nonzeros)
// instead of O(n³).
//
// The split is physical, not just conceptual: spSymbolic is immutable
// once built (pattern, orderings, recorded elimination and scatter map)
// and spNumeric holds everything a refactorization mutates (factor
// values, division constants, workspaces). Any number of spNumeric
// workspaces can replay the same spSymbolic concurrently, which is what
// SparseComplexWorkspace exposes for the parallel AC sweep.
//
// The real and complex backends share one generic core; complex pivot
// magnitudes use |·|² (monotone in |·|, no square root), matching the
// dense complex elimination.

// scalar is the element domain shared by the real and complex sparse
// backends.
type scalar interface {
	float64 | complex128
}

// absq returns |v|² for either element type.
func absq[T scalar](v T) float64 {
	switch x := any(v).(type) {
	case float64:
		return x * x
	case complex128:
		return real(x)*real(x) + imag(x)*imag(x)
	}
	return 0
}

// errRepivot is an internal signal from refactor: the stored pivot order
// has become numerically inadequate for the new values and the caller
// must redo the full (symbolic) factorization.
var errRepivot = errors.New("linalg: sparse refactorization needs new pivots")

// refactorGuard2 is the squared pivot-degeneracy threshold: a
// refactorization pivot whose squared magnitude falls below
// refactorGuard2 times the squared column maximum triggers errRepivot.
// (1e-6 == (1e-3)², i.e. the classic 0.001 threshold-pivoting bound.)
const refactorGuard2 = 1e-6

// spMatrix is the assembly buffer: triplets while the structure is being
// discovered, compressed sparse columns (rows sorted, duplicates merged)
// afterwards. Stamping an entry outside the compiled structure drops the
// matrix back to triplet form so the next Factor recompiles — analyses
// with different footprints (DC vs transient companion stamps) can share
// one buffer.
type spMatrix[T scalar] struct {
	n        int
	compiled bool
	ti, tj   []int32 // triplet rows/cols (assembly mode)
	tv       []T     // triplet values
	colp     []int32 // CSC column pointers, len n+1 (compiled)
	rowi     []int32 // CSC row indices, sorted within each column
	vals     []T     // CSC values
}

func newSPMatrix[T scalar](n int) *spMatrix[T] {
	return &spMatrix[T]{n: n}
}

// tripletCap is the initial capacity of the triplet assembly arrays:
// large enough that a typical MNA stamp stream (a few hundred entries)
// skips the append growth ladder, small enough to be irrelevant per
// solver instance.
const tripletCap = 256

// addto accumulates entry (i, j) += v in either mode.
func (m *spMatrix[T]) addto(i, j int, v T) {
	if !m.compiled {
		if m.ti == nil {
			m.ti = make([]int32, 0, tripletCap)
			m.tj = make([]int32, 0, tripletCap)
			m.tv = make([]T, 0, tripletCap)
		}
		m.ti = append(m.ti, int32(i))
		m.tj = append(m.tj, int32(j))
		m.tv = append(m.tv, v)
		return
	}
	// Columns are short (a handful of device terminals); a linear scan
	// beats binary search at these lengths.
	r := int32(i)
	for t := m.colp[j]; t < m.colp[j+1]; t++ {
		if m.rowi[t] == r {
			m.vals[t] += v
			return
		}
	}
	m.grow(i, j, v)
}

// zero clears the assembled values, keeping the compiled structure.
func (m *spMatrix[T]) zero() {
	if !m.compiled {
		m.ti, m.tj, m.tv = m.ti[:0], m.tj[:0], m.tv[:0]
		return
	}
	var z T
	for i := range m.vals {
		m.vals[i] = z
	}
}

// grow reopens the structure for an entry outside the compiled pattern:
// the current values decompile back to triplets (preserving the partial
// assembly in flight) and the new entry is appended.
func (m *spMatrix[T]) grow(i, j int, v T) {
	ti := make([]int32, 0, len(m.rowi)+8)
	tj := make([]int32, 0, len(m.rowi)+8)
	tv := make([]T, 0, len(m.rowi)+8)
	for col := 0; col < m.n; col++ {
		for t := m.colp[col]; t < m.colp[col+1]; t++ {
			ti = append(ti, m.rowi[t])
			tj = append(tj, int32(col))
			tv = append(tv, m.vals[t])
		}
	}
	m.ti = append(ti, int32(i))
	m.tj = append(tj, int32(j))
	m.tv = append(tv, v)
	m.colp, m.rowi, m.vals = nil, nil, nil
	m.compiled = false
}

// compile converts the triplets to CSC with sorted rows and merged
// duplicates, then drops the triplet storage.
func (m *spMatrix[T]) compile() {
	n := m.n
	colp := make([]int32, n+1)
	for _, j := range m.tj {
		colp[j+1]++
	}
	for j := 0; j < n; j++ {
		colp[j+1] += colp[j]
	}
	ri := make([]int32, len(m.ti))
	vv := make([]T, len(m.ti))
	next := append([]int32(nil), colp[:n]...)
	for t := range m.ti {
		j := m.tj[t]
		p := next[j]
		next[j]++
		ri[p] = m.ti[t]
		vv[p] = m.tv[t]
	}
	// Sort each column by row (insertion sort: columns are short), then
	// merge duplicates, compacting in place.
	out := int32(0)
	final := make([]int32, n+1)
	for j := 0; j < n; j++ {
		lo, hi := colp[j], colp[j+1]
		for a := lo + 1; a < hi; a++ {
			r, v := ri[a], vv[a]
			b := a
			for b > lo && ri[b-1] > r {
				ri[b], vv[b] = ri[b-1], vv[b-1]
				b--
			}
			ri[b], vv[b] = r, v
		}
		for a := lo; a < hi; {
			r := ri[a]
			var s T
			for a < hi && ri[a] == r {
				s += vv[a]
				a++
			}
			ri[out], vv[out] = r, s
			out++
		}
		final[j+1] = out
	}
	m.colp, m.rowi, m.vals = final, ri[:out], vv[:out]
	m.ti, m.tj, m.tv = nil, nil, nil
	m.compiled = true
}

// minDegreeOrder computes a fill-reducing elimination order for the
// pattern of A+Aᵀ with a plain minimum-degree heuristic over a bitset
// adjacency (no quotient graph — MNA systems here are tens of unknowns,
// so the simple O(n²·n/64) elimination is cheaper than bookkeeping).
// Ties break on the smallest index, keeping the order deterministic.
func minDegreeOrder(n int, colp, rowi []int32) []int32 {
	perm := make([]int32, 0, n)
	if n == 0 {
		return perm
	}
	words := (n + 63) / 64
	adj := make([]uint64, n*words)
	set := func(i, j int) {
		if i != j {
			adj[i*words+j/64] |= 1 << uint(j%64)
		}
	}
	for j := 0; j < n; j++ {
		for t := colp[j]; t < colp[j+1]; t++ {
			i := int(rowi[t])
			set(i, j)
			set(j, i)
		}
	}
	alive := make([]uint64, words)
	for i := 0; i < n; i++ {
		alive[i/64] |= 1 << uint(i%64)
	}
	isAlive := func(i int) bool { return alive[i/64]&(1<<uint(i%64)) != 0 }
	deg := make([]int, n)
	recompute := func(i int) {
		row := adj[i*words : (i+1)*words]
		d := 0
		for w := 0; w < words; w++ {
			d += bits.OnesCount64(row[w] & alive[w])
		}
		deg[i] = d
	}
	for i := 0; i < n; i++ {
		recompute(i)
	}
	for len(perm) < n {
		best, bestd := -1, n+1
		for i := 0; i < n; i++ {
			if isAlive(i) && deg[i] < bestd {
				best, bestd = i, deg[i]
			}
		}
		p := best
		perm = append(perm, int32(p))
		alive[p/64] &^= 1 << uint(p%64)
		// Eliminating p connects its remaining neighbors into a clique.
		prow := adj[p*words : (p+1)*words]
		for i := 0; i < n; i++ {
			if !isAlive(i) || prow[i/64]&(1<<uint(i%64)) == 0 {
				continue
			}
			irow := adj[i*words : (i+1)*words]
			for w := 0; w < words; w++ {
				irow[w] |= prow[w]
			}
			irow[i/64] &^= 1 << uint(i%64)
		}
		for i := 0; i < n; i++ {
			if isAlive(i) && prow[i/64]&(1<<uint(i%64)) != 0 {
				recompute(i)
			}
		}
	}
	return perm
}

// spSymbolic is the immutable product of a symbolic factorization: the
// column order q, the row permutation pinv, the L and U patterns (U's
// entries recorded in the topological order the elimination emitted
// them, diagonal last — exactly the replay order a numeric
// refactorization needs; L's diagonal is an implicit 1, its row indices
// remapped to pivotal positions), and scat, the precomputed scatter map
// from CSC value positions to pivotal rows (scat[t] = pinv[rowi[t]]).
// Nothing in here is written after factor returns, so any number of
// spNumeric workspaces may share one spSymbolic across goroutines.
type spSymbolic struct {
	n    int
	q    []int32 // column order: column q[k] is eliminated k-th
	pinv []int32 // pinv[origRow] = pivotal position

	lp, li []int32
	up, ui []int32

	scat []int32 // scat[t] = pinv[rowi[t]], aligned with the CSC values
}

// SymbolicCache shares immutable symbolic factorizations across solver
// instances. Every evaluation of a problem factors the same two matrix
// patterns (the DC Jacobian and the AC system) on one of several pooled
// circuits; with a cache attached, each solver — on construction and
// again after every Restart — adopts the stored pattern analysis,
// fill-reducing order and recorded elimination and goes straight to the
// numeric replay, skipping the ordering and DFS-driven full
// factorization entirely.
//
// A cache is seeded single-threaded (the harness factors one reference
// circuit at construction) and then Frozen; lookups after Freeze are
// lock-free in the sense of never blocking on writers, and store becomes
// a no-op, so the cache contents — and therefore every numeric result —
// are a pure function of the seeding circuit, independent of evaluation
// order or concurrency. Entries whose stored pivots degenerate for a
// particular value set fall back to a private full factorization in the
// adopting solver; the shared entry is never mutated.
//
// spSymbolic stores only index data (no scalar values), so one cache
// serves both the real and complex backends.
type SymbolicCache struct {
	mu sync.RWMutex
	// frozen is read without the lock by store, which every successful
	// factorization calls: once frozen, the hot path never takes the
	// exclusive lock that would stall concurrent readers.
	frozen  atomic.Bool
	entries []symCacheEntry
}

// symCacheEntry keys a shared spSymbolic by the exact CSC pattern it was
// factored from (the pattern arrays are copied, so later structural
// growth in the seeding solver cannot corrupt the key) plus the scalar
// flavor of the seeding backend, which disambiguates the DC (real) and
// AC (complex) patterns of the same system order for pattern adoption.
type symCacheEntry struct {
	n          int
	flavor     uint8
	colp, rowi []int32
	sym        *spSymbolic
}

// flavorOf tags the scalar domain of a backend instantiation.
func flavorOf[T scalar]() uint8 {
	var z T
	if _, ok := any(z).(complex128); ok {
		return 1
	}
	return 0
}

// NewSymbolicCache returns an empty cache ready to be attached to
// solvers via SetSymbolicCache.
func NewSymbolicCache() *SymbolicCache {
	return &SymbolicCache{}
}

// Freeze stops further stores: the cache becomes an immutable lookup
// table. Call it after seeding and before sharing the cache with
// concurrent evaluations.
func (c *SymbolicCache) Freeze() {
	c.mu.Lock()
	c.frozen.Store(true)
	c.mu.Unlock()
}

// matches reports whether the entry's pattern equals (n, colp, rowi). A
// matrix that adopted the entry's pattern arrays matches by pointer
// identity without the element compare.
func (e *symCacheEntry) matches(n int, colp, rowi []int32) bool {
	if e.n != n || len(e.rowi) != len(rowi) {
		return false
	}
	if len(rowi) > 0 && &e.rowi[0] == &rowi[0] && &e.colp[0] == &colp[0] {
		return true
	}
	for i, v := range e.colp {
		if colp[i] != v {
			return false
		}
	}
	for i, v := range e.rowi {
		if rowi[i] != v {
			return false
		}
	}
	return true
}

// lookup returns the cached symbolic factorization for the exact pattern
// (n, colp, rowi), or nil on a miss.
func (c *SymbolicCache) lookup(n int, colp, rowi []int32) *spSymbolic {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := range c.entries {
		if c.entries[i].matches(n, colp, rowi) {
			return c.entries[i].sym
		}
	}
	return nil
}

// store records a symbolic factorization for its pattern. A no-op once
// the cache is frozen or when the pattern is already present (first
// seeding wins, keeping results independent of store order).
func (c *SymbolicCache) store(n int, flavor uint8, colp, rowi []int32, sym *spSymbolic) {
	if c.frozen.Load() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frozen.Load() {
		return
	}
	for i := range c.entries {
		if c.entries[i].matches(n, colp, rowi) {
			return
		}
	}
	c.entries = append(c.entries, symCacheEntry{
		n:      n,
		flavor: flavor,
		colp:   append([]int32(nil), colp...),
		rowi:   append([]int32(nil), rowi...),
		sym:    sym,
	})
}

// patternFor returns the compiled CSC pattern of the unique frozen entry
// with the given order and scalar flavor, for speculative pattern
// adoption by a not-yet-stamped matrix. It returns nil when the cache is
// still being seeded (speculation must not influence seeding) or when
// the choice is ambiguous. The returned arrays are cache-owned and must
// be treated as immutable.
func (c *SymbolicCache) patternFor(n int, flavor uint8) (colp, rowi []int32) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.frozen.Load() {
		return nil, nil
	}
	found := -1
	for i := range c.entries {
		e := &c.entries[i]
		if e.n != n || e.flavor != flavor {
			continue
		}
		if found >= 0 {
			return nil, nil
		}
		found = i
	}
	if found < 0 {
		return nil, nil
	}
	return c.entries[found].colp, c.entries[found].rowi
}

// spNumeric holds everything a numeric refactorization mutates: the L/U
// values, the per-pivot Smith division constants (complex only), and the
// scratch vectors. One spNumeric per goroutine; the shared spSymbolic is
// read-only.
type spNumeric[T scalar] struct {
	sym    *spSymbolic
	lx, ux []T
	pd     []pivotDiv // per-pivot division constants (complex backend)
	w, sx  []T        // accumulation / permuted-solution workspaces
}

// clearW zeroes the accumulation workspace after a failed refactorization
// left it in an unknown state.
func (nm *spNumeric[T]) clearW() {
	var z T
	for i := range nm.w {
		nm.w[i] = z
	}
}

// rebuildPD recomputes the per-pivot division constants from the stored
// U diagonal. A no-op for the real backend.
func (nm *spNumeric[T]) rebuildPD() {
	cn, ok := any(nm).(*spNumeric[complex128])
	if !ok {
		return
	}
	sym := cn.sym
	if cap(cn.pd) < sym.n {
		cn.pd = make([]pivotDiv, sym.n)
	}
	cn.pd = cn.pd[:sym.n]
	for k := 0; k < sym.n; k++ {
		cn.pd[k] = newPivotDiv(cn.ux[sym.up[k+1]-1])
	}
}

// refactor redoes the numeric factorization on new values using the
// stored pattern and pivot order: per column it replays the recorded
// updates in their original emission order, so the arithmetic — and the
// result — is bit-identical to the full factorization's numeric phase.
// A pivot that degenerates relative to its column returns errRepivot and
// the caller falls back to a fresh symbolic factorization.
func (nm *spNumeric[T]) refactor(a *spMatrix[T]) error {
	if cn, ok := any(nm).(*spNumeric[complex128]); ok {
		return crefactorC(cn, any(a).(*spMatrix[complex128]))
	}
	sym := nm.sym
	n := sym.n
	w := nm.w
	lp, li := sym.lp, sym.li
	up, ui := sym.up, sym.ui
	lx, ux := nm.lx, nm.ux
	scat, q := sym.scat, sym.q
	colp, vals := a.colp, a.vals
	var z T
	for k := 0; k < n; k++ {
		col := int(q[k])
		for t := colp[col]; t < colp[col+1]; t++ {
			w[scat[t]] = vals[t]
		}
		// Consume-and-clear: U's entries are recorded in topological
		// order, so by the time w[j] is read here every update into it
		// has already been applied and the slot can be zeroed for the
		// next column immediately, saving a second pass over the
		// pattern. (All updates from column j land on L(:,j) rows,
		// which are strictly later pivotal positions.)
		for t := up[k]; t < up[k+1]-1; t++ {
			j := int(ui[t])
			xj := w[j]
			ux[t] = xj
			w[j] = z
			for s := lp[j]; s < lp[j+1]; s++ {
				w[li[s]] -= lx[s] * xj
			}
		}
		piv := w[k]
		w[k] = z
		pm := absq(piv)
		if pm == 0 || math.IsNaN(pm) {
			nm.clearW()
			return &PivotError{Index: col, Err: ErrSingular}
		}
		colmax := pm
		for s := lp[k]; s < lp[k+1]; s++ {
			wv := w[li[s]]
			w[li[s]] = z
			if v := absq(wv); v > colmax {
				colmax = v
			}
			lx[s] = wv / piv
		}
		if pm < refactorGuard2*colmax {
			nm.clearW()
			return errRepivot
		}
		ux[up[k+1]-1] = piv
	}
	return nil
}

// solveInto solves A x = b with the stored factors: P A Q = L U, so
// L U (Qᵀx) = P b.
func (nm *spNumeric[T]) solveInto(x, b []T) {
	sym := nm.sym
	n := sym.n
	sx := nm.sx
	pinv, q := sym.pinv, sym.q
	lp, li := sym.lp, sym.li
	up, ui := sym.up, sym.ui
	lx, ux := nm.lx, nm.ux
	for i := 0; i < n; i++ {
		sx[pinv[i]] = b[i]
	}
	for j := 0; j < n; j++ {
		xj := sx[j]
		for t := lp[j]; t < lp[j+1]; t++ {
			sx[li[t]] -= lx[t] * xj
		}
	}
	for j := n - 1; j >= 0; j-- {
		xj := sx[j] / ux[up[j+1]-1]
		sx[j] = xj
		for t := up[j]; t < up[j+1]-1; t++ {
			sx[ui[t]] -= ux[t] * xj
		}
	}
	for j := 0; j < n; j++ {
		x[q[j]] = sx[j]
	}
}

// crefactorC is the complex numeric refactorization. It is the AC
// sweep's hottest loop, so beyond the generic replay it (a) scatters
// through the precomputed map, (b) fuses the column-max scan with the L
// division, and (c) hoists the per-pivot Smith division constants so the
// L column costs one newPivotDiv plus cheap divides instead of a runtime
// complex128div per entry. pivotDiv.div reproduces complex128div
// bit-for-bit on finite operands (see the dense CSolve pinning test), so
// the refactor-equals-factor determinism contract is preserved.
func crefactorC(nm *spNumeric[complex128], a *spMatrix[complex128]) error {
	sym := nm.sym
	n := sym.n
	w := nm.w
	lp, li := sym.lp, sym.li
	up, ui := sym.up, sym.ui
	lx, ux := nm.lx, nm.ux
	pd := nm.pd
	scat, q := sym.scat, sym.q
	colp, vals := a.colp, a.vals
	for k := 0; k < n; k++ {
		for t := colp[q[k]]; t < colp[q[k]+1]; t++ {
			w[scat[t]] = vals[t]
		}
		// Consume-and-clear, exactly as in the generic replay: the
		// topological emission order guarantees w[j] is fully updated
		// when read, so it is zeroed inline instead of in a trailing
		// pass over the pattern.
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

// crefactorAffineC is crefactorC with the affine value reload fused into
// the scatter: instead of first materializing vals[t] = base[t] + tt·slope[t]
// into the matrix and then scattering, each entry is computed as it
// scatters. The per-entry expression is identical to LoadValues', so the
// factors are bit-identical to a materialize-then-refactor sequence while
// the whole pass over the value array (and its memory traffic) is gone.
// This is the AC sweep's per-frequency-point path.
func crefactorAffineC(nm *spNumeric[complex128], a *spMatrix[complex128], base, slope []complex128, tt float64) error {
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

// csolveIntoC is the complex triangular solve using the hoisted division
// constants; zero right-hand-side entries (most of an MNA AC source
// vector) skip their update loops.
func csolveIntoC(nm *spNumeric[complex128], x, b []complex128) {
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

// spLU is the sparse LU driver: it owns the DFS scratch for symbolic
// factorizations, the current (immutable) spSymbolic, and its private
// spNumeric. Each symbolic factorization builds a fresh spSymbolic so
// workspaces holding the previous one are never invalidated under them.
type spLU[T scalar] struct {
	n     int
	valid bool // true when the stored pattern/pivots match the matrix

	q   []int32 // column order for the next symbolic factorization
	sym *spSymbolic
	num *spNumeric[T]

	// symbolic-factorization scratch, allocated lazily on the first
	// full factorization — a solver that only ever adopts cached
	// symbolics never needs it.
	xi     []int32 // reach pattern, topological order
	rstack []int32 // DFS node stack
	pstack []int32 // DFS position stack
	flag   []int32 // DFS visited marks, keyed by column step
}

func newSPLU[T scalar](n int) *spLU[T] {
	buf := make([]T, 2*n)
	return &spLU[T]{
		n: n,
		num: &spNumeric[T]{
			w:  buf[:n:n],
			sx: buf[n:],
		},
	}
}

// ensureScratch allocates the DFS scratch for a full symbolic
// factorization (one backing array, sliced four ways).
func (f *spLU[T]) ensureScratch() {
	if f.xi != nil {
		return
	}
	n := f.n
	buf := make([]int32, 4*n)
	f.xi = buf[:n:n]
	f.rstack = buf[n : 2*n : 2*n]
	f.pstack = buf[2*n : 3*n : 3*n]
	f.flag = buf[3*n:]
}

// adopt installs a shared symbolic factorization produced elsewhere for
// the same CSC pattern and replays its elimination on the matrix's
// current values. The numeric result is bit-identical to a full
// factorization that would choose the same pivots; values for which the
// stored pivot order degenerates return errRepivot and the caller falls
// back to a full factorization (the shared symbolic is never mutated).
func (f *spLU[T]) adopt(sym *spSymbolic, a *spMatrix[T]) error {
	f.valid = false
	f.q = sym.q
	f.sym = sym
	nm := f.num
	nm.sym = sym
	nl, nu := len(sym.li), len(sym.ui)
	if cap(nm.lx) < nl || cap(nm.ux) < nu {
		buf := make([]T, nl+nu)
		nm.lx = buf[:nl:nl]
		nm.ux = buf[nl:]
	} else {
		nm.lx = nm.lx[:nl]
		nm.ux = nm.ux[:nu]
	}
	if cn, ok := any(nm).(*spNumeric[complex128]); ok {
		if cap(cn.pd) < sym.n {
			cn.pd = make([]pivotDiv, sym.n)
		}
		cn.pd = cn.pd[:sym.n]
	}
	if err := nm.refactor(a); err != nil {
		return err
	}
	f.valid = true
	return nil
}

// dfs pushes the reach of unvisited node i (an original row index) onto
// xi[...top] in topological order and returns the new top. Edges run
// from a pivotal row through its L column in the symbolic being built.
func (f *spLU[T]) dfs(ns *spSymbolic, i, k, top int) int {
	head := 0
	f.rstack[0] = int32(i)
	for head >= 0 {
		i := int(f.rstack[head])
		if f.flag[i] != int32(k) {
			f.flag[i] = int32(k)
			if jp := ns.pinv[i]; jp >= 0 {
				f.pstack[head] = ns.lp[jp]
			} else {
				f.pstack[head] = 0
			}
		}
		done := true
		if jp := ns.pinv[i]; jp >= 0 {
			for t := f.pstack[head]; t < ns.lp[jp+1]; t++ {
				j := int(ns.li[t])
				if f.flag[j] != int32(k) {
					f.pstack[head] = t + 1
					head++
					f.rstack[head] = int32(j)
					done = false
					break
				}
			}
		}
		if done {
			head--
			top--
			f.xi[top] = int32(i)
		}
	}
	return top
}

// factor runs the full symbolic+numeric Gilbert–Peierls factorization of
// the compiled matrix under the stored column order, producing a fresh
// immutable spSymbolic. Partial pivoting prefers the diagonal when it is
// within 10⁻¹ of the column maximum (threshold pivoting keeps the MNA
// structure and fill stable); ties break on the smallest row index for
// determinism.
func (f *spLU[T]) factor(a *spMatrix[T]) error {
	n := f.n
	f.valid = false
	f.ensureScratch()
	ns := &spSymbolic{
		n:    n,
		q:    f.q,
		pinv: make([]int32, n),
		lp:   make([]int32, 1, n+1),
		up:   make([]int32, 1, n+1),
	}
	if old := f.sym; old != nil {
		ns.li = make([]int32, 0, len(old.li))
		ns.ui = make([]int32, 0, len(old.ui))
	} else if nnz := len(a.rowi); nnz > 0 {
		// First factorization of this pattern: seed the factor arrays
		// with a fill-typical capacity so the append ladder is short.
		ns.li = make([]int32, 0, 2*nnz)
		ns.ui = make([]int32, 0, 2*nnz)
	}
	for i := range ns.pinv {
		ns.pinv[i] = -1
	}
	for i := range f.flag {
		f.flag[i] = -1
	}
	nm := f.num
	if cap(nm.lx) == 0 && len(a.rowi) > 0 {
		nm.lx = make([]T, 0, 2*len(a.rowi))
		nm.ux = make([]T, 0, 2*len(a.rowi))
	}
	nm.lx, nm.ux = nm.lx[:0], nm.ux[:0]
	x := nm.w

	const diagPref2 = 1e-2 // (0.1)²: diagonal preference threshold
	for k := 0; k < n; k++ {
		col := int(ns.q[k])
		// Symbolic: pattern of x = Reach_L(pattern of A(:,col)).
		top := n
		for t := a.colp[col]; t < a.colp[col+1]; t++ {
			if i := int(a.rowi[t]); f.flag[i] != int32(k) {
				top = f.dfs(ns, i, k, top)
			}
		}
		// Numeric: x = L \ A(:,col), in topological order.
		for t := a.colp[col]; t < a.colp[col+1]; t++ {
			x[a.rowi[t]] = a.vals[t]
		}
		for p := top; p < n; p++ {
			i := int(f.xi[p])
			jp := int(ns.pinv[i])
			if jp < 0 {
				continue
			}
			xj := x[i]
			for t := ns.lp[jp]; t < ns.lp[jp+1]; t++ {
				x[ns.li[t]] -= nm.lx[t] * xj
			}
		}
		// Pivot among the not-yet-pivotal rows.
		ipiv, maxv, diagv := -1, 0.0, -1.0
		for p := top; p < n; p++ {
			i := int(f.xi[p])
			if ns.pinv[i] >= 0 {
				continue
			}
			v := absq(x[i])
			if v > maxv || (v == maxv && ipiv >= 0 && i < ipiv) {
				ipiv, maxv = i, v
			}
			if i == col {
				diagv = v
			}
		}
		if ipiv < 0 || maxv == 0 || math.IsNaN(maxv) {
			for p := top; p < n; p++ {
				var z T
				x[f.xi[p]] = z
			}
			return &PivotError{Index: col, Err: ErrSingular}
		}
		if diagv >= diagPref2*maxv {
			ipiv = col
		}
		pivot := x[ipiv]
		ns.pinv[ipiv] = int32(k)
		// U column k: pivotal entries in topological (emission) order,
		// diagonal last. L column k: the rest, divided by the pivot;
		// row indices stay original until the final remap.
		for p := top; p < n; p++ {
			i := int(f.xi[p])
			if ip := ns.pinv[i]; ip >= 0 && int(ip) < k {
				ns.ui = append(ns.ui, ip)
				nm.ux = append(nm.ux, x[i])
			}
		}
		ns.ui = append(ns.ui, int32(k))
		nm.ux = append(nm.ux, pivot)
		ns.up = append(ns.up, int32(len(ns.ui)))
		for p := top; p < n; p++ {
			i := int(f.xi[p])
			if ns.pinv[i] < 0 {
				ns.li = append(ns.li, int32(i))
				nm.lx = append(nm.lx, x[i]/pivot)
			}
		}
		ns.lp = append(ns.lp, int32(len(ns.li)))
		var z T
		for p := top; p < n; p++ {
			x[f.xi[p]] = z
		}
	}
	// Remap L's row indices into pivotal positions so the numeric
	// refactorization and the solves work purely in permuted space, and
	// precompute the value-position → pivotal-row scatter map.
	for t := range ns.li {
		ns.li[t] = ns.pinv[ns.li[t]]
	}
	ns.scat = make([]int32, len(a.rowi))
	for t, r := range a.rowi {
		ns.scat[t] = ns.pinv[r]
	}
	f.sym = ns
	nm.sym = ns
	nm.rebuildPD()
	f.valid = true
	return nil
}

// refactor replays the stored elimination on new values; on failure the
// factorization is invalidated and the caller decides whether to retry
// with a fresh symbolic factorization (errRepivot) or give up.
func (f *spLU[T]) refactor(a *spMatrix[T]) error {
	err := f.num.refactor(a)
	if err != nil {
		f.valid = false
	}
	return err
}

// solveInto solves A x = b with the stored factors.
func (f *spLU[T]) solveInto(x, b []T) {
	f.num.solveInto(x, b)
}

// sparseCore bundles assembly and factorization state shared by the real
// and complex exported backends.
type sparseCore[T scalar] struct {
	a     *spMatrix[T]
	lu    *spLU[T]
	cache *SymbolicCache
	stats SolverStats
}

func newSparseCore[T scalar](n int) sparseCore[T] {
	return sparseCore[T]{
		a:     newSPMatrix[T](n),
		lu:    newSPLU[T](n),
		stats: SolverStats{Kind: "sparse", N: n},
	}
}

// SetSymbolicCache attaches a shared symbolic cache: subsequent
// factorizations of a new pattern first try to adopt a cached symbolic
// (skipping ordering and the full factorization) and, while the cache is
// unfrozen, store freshly computed symbolics for other solvers.
//
// When the cache is frozen and holds exactly one pattern for this order
// and scalar flavor, a not-yet-stamped matrix additionally adopts that
// compiled pattern up front, so assembly goes straight into CSC mode and
// the triplet compile is skipped. A stamp outside the adopted pattern
// drops back to triplet assembly (and the resulting pattern simply
// misses the cache), so speculation never changes results.
func (s *sparseCore[T]) SetSymbolicCache(c *SymbolicCache) {
	s.cache = c
	if s.a.compiled || len(s.a.ti) > 0 {
		return
	}
	s.adoptPattern()
}

// adoptPattern points an empty matrix at the frozen cache's compiled
// pattern for this order and flavor, if there is one (see
// SetSymbolicCache), reusing the value buffer's capacity.
func (s *sparseCore[T]) adoptPattern() {
	if s.cache == nil {
		return
	}
	colp, rowi := s.cache.patternFor(s.a.n, flavorOf[T]())
	if colp == nil {
		return
	}
	s.a.colp, s.a.rowi = colp, rowi
	if cap(s.a.vals) < len(rowi) {
		s.a.vals = make([]T, len(rowi))
	}
	s.a.vals = s.a.vals[:len(rowi)]
	clear(s.a.vals)
	s.a.compiled = true
	s.stats.NNZ = len(rowi)
}

// Restart returns the solver to the state of a newly constructed one
// with the same symbolic cache attached, keeping every buffer: the
// assembly is emptied and re-adopts the frozen cache pattern, any
// private symbolic factorization left by a repivot fallback is dropped,
// and the next Factor adopts the cached symbolic again (or, without a
// cache entry, analyzes the pattern afresh). Cumulative counters are
// kept; the NNZ gauges read as a new solver's. A solver reused for an
// unrelated system calls Restart first, so its factors never depend on
// what it solved before.
func (s *sparseCore[T]) Restart() {
	a := s.a
	a.compiled = false
	a.ti, a.tj, a.tv = a.ti[:0], a.tj[:0], a.tv[:0]
	a.colp, a.rowi = nil, nil
	a.vals = a.vals[:0]
	s.lu.valid = false
	s.lu.q = nil
	s.lu.sym = nil
	s.lu.num.sym = nil
	s.stats.NNZ, s.stats.FillNNZ = 0, 0
	s.adoptPattern()
}

// ensureCompiled freezes the assembled structure: triplets are merged
// into CSC form. The fill-reducing order is invalidated here but
// computed lazily in factor — a cache hit never needs it. A no-op when
// the structure is already compiled.
func (s *sparseCore[T]) ensureCompiled() {
	if s.a.compiled {
		return
	}
	s.a.compile()
	s.lu.valid = false
	s.lu.q = nil
	s.stats.NNZ = len(s.a.rowi)
}

func (s *sparseCore[T]) factor() error {
	s.stats.Factorizations++
	s.ensureCompiled()
	if !s.lu.valid && s.cache != nil {
		if sym := s.cache.lookup(s.a.n, s.a.colp, s.a.rowi); sym != nil {
			err := s.lu.adopt(sym, s.a)
			if err == nil {
				s.stats.FillNNZ = len(sym.li) + len(sym.ui)
				return nil
			}
			if !errors.Is(err, errRepivot) {
				return err
			}
			// Cached pivots degenerate for these values: fall through
			// to a full factorization (adopt already installed the
			// cached column order, so no fresh ordering is needed).
		}
	}
	var err error
	if !s.lu.valid {
		s.stats.Symbolic++
		if s.lu.q == nil {
			s.lu.q = minDegreeOrder(s.a.n, s.a.colp, s.a.rowi)
		}
		err = s.lu.factor(s.a)
	} else if err = s.lu.refactor(s.a); errors.Is(err, errRepivot) {
		s.stats.Symbolic++
		err = s.lu.factor(s.a)
	}
	if err == nil {
		s.stats.FillNNZ = len(s.lu.sym.li) + len(s.lu.sym.ui)
		if s.cache != nil {
			s.cache.store(s.a.n, flavorOf[T](), s.a.colp, s.a.rowi, s.lu.sym)
		}
	}
	return err
}

// SparseSolver is the sparse real backend implementing Solver. The first
// Factor after a structural change pays compilation, ordering and the
// symbolic factorization; subsequent Factors are numeric-only.
type SparseSolver struct {
	sparseCore[float64]
}

// NewSparseSolver returns a sparse backend for order-n real systems.
func NewSparseSolver(n int) *SparseSolver {
	return &SparseSolver{newSparseCore[float64](n)}
}

// Addto implements Stamper.
func (s *SparseSolver) Addto(i, j int, v float64) { s.a.addto(i, j, v) }

// Order implements Solver.
func (s *SparseSolver) Order() int { return s.a.n }

// Reset implements Solver.
func (s *SparseSolver) Reset() { s.a.zero() }

// Factor implements Solver.
func (s *SparseSolver) Factor() error { return s.factor() }

// SolveInto implements Solver.
func (s *SparseSolver) SolveInto(x, b Vector) error {
	if len(x) != s.a.n || len(b) != s.a.n {
		return errDimension
	}
	if !s.lu.valid {
		return errors.New("linalg: SparseSolver.SolveInto before successful Factor")
	}
	s.lu.solveInto(x, b)
	s.stats.Solves++
	return nil
}

// Stats implements Solver.
func (s *SparseSolver) Stats() SolverStats { return s.stats }

// SparseComplexSolver is the sparse complex backend implementing
// ComplexSolver, used by the AC sweep: the (G + jωC) pattern is fixed
// across frequency points, so every point after the first is a numeric
// refactorization plus one triangular solve.
type SparseComplexSolver struct {
	sparseCore[complex128]
}

// NewSparseComplexSolver returns a sparse backend for order-n complex
// systems.
func NewSparseComplexSolver(n int) *SparseComplexSolver {
	return &SparseComplexSolver{newSparseCore[complex128](n)}
}

// Addto implements CStamper.
func (s *SparseComplexSolver) Addto(i, j int, v complex128) { s.a.addto(i, j, v) }

// Order implements ComplexSolver.
func (s *SparseComplexSolver) Order() int { return s.a.n }

// Reset implements ComplexSolver.
func (s *SparseComplexSolver) Reset() { s.a.zero() }

// Factor implements ComplexSolver.
func (s *SparseComplexSolver) Factor() error { return s.factor() }

// SolveInto implements ComplexSolver.
func (s *SparseComplexSolver) SolveInto(x, b []complex128) error {
	if len(x) != s.a.n || len(b) != s.a.n {
		return errDimension
	}
	if !s.lu.valid {
		return errors.New("linalg: SparseComplexSolver.SolveInto before successful Factor")
	}
	csolveIntoC(s.lu.num, x, b)
	s.stats.Solves++
	return nil
}

// Stats implements ComplexSolver.
func (s *SparseComplexSolver) Stats() SolverStats { return s.stats }

// Absorb folds a workspace's counters into the parent solver's stats, so
// work done on bound workspaces still shows up in the instrumented
// totals. Gauges (NNZ, FillNNZ) keep the maximum seen.
func (s *SparseComplexSolver) Absorb(st SolverStats) {
	s.stats.Factorizations += st.Factorizations
	s.stats.Solves += st.Solves
	s.stats.Symbolic += st.Symbolic
	if st.FillNNZ > s.stats.FillNNZ {
		s.stats.FillNNZ = st.FillNNZ
	}
}

// CaptureValues compiles the assembled structure if necessary and copies
// the current matrix values, in the backend's stable storage order, into
// dst (reusing its capacity). Together with LoadValues it lets a caller
// snapshot two assemblies of a value-affine family A(t) = A0 + t·A1 —
// e.g. the AC system G + jωC over ω — and re-materialize any member
// with one linear pass instead of restamping every device.
func (s *SparseComplexSolver) CaptureValues(dst []complex128) []complex128 {
	s.ensureCompiled()
	return append(dst[:0], s.a.vals...)
}

// LoadValues overwrites the assembled values with base[k] + t·slope[k].
// It reports false — leaving the assembly untouched — when a captured
// length no longer matches the compiled structure (e.g. after growth).
func (s *SparseComplexSolver) LoadValues(base, slope []complex128, t float64) bool {
	if !s.a.compiled || len(base) != len(s.a.vals) || len(slope) != len(s.a.vals) {
		return false
	}
	for k, sl := range slope {
		s.a.vals[k] = base[k] + complex(real(sl)*t, imag(sl)*t)
	}
	return true
}

// SparseComplexWorkspace is a per-goroutine numeric companion to a
// SparseComplexSolver: it shares the parent's immutable CSC pattern and
// spSymbolic but owns its values, factors and scratch, so N workspaces
// can LoadValues/Factor/SolveInto the same structure concurrently. Every
// Factor replays the shared symbolic from scratch (no per-workspace
// pivot history), so results are independent of how points are
// distributed over workspaces; a point whose pivots degenerate falls
// back to a private full factorization without touching the shared
// state. Workspaces are invalidated by any structural change or symbolic
// refactorization in the parent — rebind them with BindWorkspace after
// Factor.
type SparseComplexWorkspace struct {
	a   spMatrix[complex128] // shares colp/rowi with the parent; vals only materialized for the fallback
	num spNumeric[complex128]
	buf []complex128 // backing array of num's lx, ux, w and sx
	// affBase/affSlope/affT record the last LoadValues call; Factor fuses
	// the affine reload into the refactorization's scatter instead of
	// materializing a value array per point.
	affBase, affSlope []complex128
	affT              float64
	affine            bool
	full              *spLU[complex128] // lazy private fallback when pivots degenerate
	fullActive        bool
	factored          bool
	stats             SolverStats
}

// BindWorkspace binds ws to the solver's current pattern and symbolic
// factorization and returns it; a nil ws allocates a new workspace. A
// rebound workspace keeps its buffers but is otherwise indistinguishable
// from a new one: no factors, no loaded values, zeroed counters. A sweep
// that keeps its workspaces across calls therefore folds only the
// current call's work back through Absorb. The solver must have been
// factored successfully first.
func (s *SparseComplexSolver) BindWorkspace(ws *SparseComplexWorkspace) (*SparseComplexWorkspace, error) {
	if !s.lu.valid {
		return nil, errors.New("linalg: BindWorkspace before successful Factor")
	}
	if ws == nil {
		ws = new(SparseComplexWorkspace)
	}
	n, sym := s.a.n, s.lu.sym
	nl, nu := len(sym.li), len(sym.ui)
	if cap(ws.buf) < nl+nu+2*n {
		ws.buf = make([]complex128, nl+nu+2*n)
	}
	buf := ws.buf[:nl+nu+2*n]
	w := buf[nl+nu : nl+nu+n : nl+nu+n]
	clear(w) // the factorization needs it zeroed; it may overlap the old factors
	pd := ws.num.pd
	if cap(pd) < n {
		pd = make([]pivotDiv, n)
	}
	ws.num = spNumeric[complex128]{
		sym: sym,
		lx:  buf[:nl:nl],
		ux:  buf[nl : nl+nu : nl+nu],
		pd:  pd[:n],
		w:   w,
		sx:  buf[nl+nu+n:],
	}
	ws.a = spMatrix[complex128]{
		n:        n,
		compiled: true,
		colp:     s.a.colp,
		rowi:     s.a.rowi,
		vals:     ws.a.vals[:0],
	}
	ws.affBase, ws.affSlope, ws.affT, ws.affine = nil, nil, 0, false
	ws.fullActive, ws.factored = false, false
	ws.stats = SolverStats{Kind: "sparse", N: n, NNZ: len(s.a.rowi)}
	return ws, nil
}

// LoadValues points the workspace at the affine snapshot member
// base[k] + t·slope[k]. The values are not materialized here: Factor
// fuses the reload into its scatter pass, producing factors bit-identical
// to materializing first. The snapshot arrays must stay unmodified (they
// are shared read-only across all workspaces of a sweep) until the next
// LoadValues.
func (ws *SparseComplexWorkspace) LoadValues(base, slope []complex128, t float64) bool {
	if len(base) != len(ws.a.rowi) || len(slope) != len(ws.a.rowi) {
		return false
	}
	ws.affBase, ws.affSlope, ws.affT = base, slope, t
	ws.affine = true
	return true
}

// materialize writes the affine member into the workspace's own value
// array, for the full-factorization fallback (which needs a plain
// assembled matrix).
func (ws *SparseComplexWorkspace) materialize() {
	nnz := len(ws.a.rowi)
	if cap(ws.a.vals) < nnz {
		ws.a.vals = make([]complex128, nnz)
	}
	ws.a.vals = ws.a.vals[:nnz]
	t := ws.affT
	for k, sl := range ws.affSlope {
		ws.a.vals[k] = ws.affBase[k] + complex(real(sl)*t, imag(sl)*t)
	}
}

// Factor refactors the workspace's values against the shared symbolic.
// When the stored pivot order degenerates for these values it falls back
// to a private full factorization (shared state untouched), so Factor
// only fails on genuinely singular systems.
func (ws *SparseComplexWorkspace) Factor() error {
	ws.stats.Factorizations++
	ws.fullActive = false
	ws.factored = false
	var err error
	if ws.affine {
		err = crefactorAffineC(&ws.num, &ws.a, ws.affBase, ws.affSlope, ws.affT)
	} else if len(ws.a.vals) == len(ws.a.rowi) {
		err = crefactorC(&ws.num, &ws.a)
	} else {
		return errors.New("linalg: SparseComplexWorkspace.Factor before LoadValues")
	}
	if err == nil {
		ws.factored = true
		if fill := len(ws.num.sym.li) + len(ws.num.sym.ui); fill > ws.stats.FillNNZ {
			ws.stats.FillNNZ = fill
		}
		return nil
	}
	if !errors.Is(err, errRepivot) {
		return err
	}
	ws.stats.Symbolic++
	if ws.affine {
		ws.materialize()
	}
	if ws.full == nil || ws.full.n != ws.a.n {
		ws.full = newSPLU[complex128](ws.a.n)
	}
	ws.full.q = ws.num.sym.q
	if err := ws.full.factor(&ws.a); err != nil {
		return err
	}
	ws.fullActive = true
	ws.factored = true
	if fill := len(ws.full.sym.li) + len(ws.full.sym.ui); fill > ws.stats.FillNNZ {
		ws.stats.FillNNZ = fill
	}
	return nil
}

// SolveInto solves with the workspace's current factors.
func (ws *SparseComplexWorkspace) SolveInto(x, b []complex128) error {
	if len(x) != ws.a.n || len(b) != ws.a.n {
		return errDimension
	}
	if !ws.factored {
		return errors.New("linalg: SparseComplexWorkspace.SolveInto before successful Factor")
	}
	if ws.fullActive {
		csolveIntoC(ws.full.num, x, b)
	} else {
		csolveIntoC(&ws.num, x, b)
	}
	ws.stats.Solves++
	return nil
}

// Stats reports the work done through this workspace; fold it back into
// the parent with SparseComplexSolver.Absorb.
func (ws *SparseComplexWorkspace) Stats() SolverStats { return ws.stats }
