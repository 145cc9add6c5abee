package spice

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"specwise/internal/linalg"
	"specwise/internal/sched"
)

// sweepCounts is the solver work one sweep adds to the shared counters.
type sweepCounts struct{ factorizations, solves, symbolic int64 }

// sweepRun runs one head of n points (0: the whole grid) over the test
// amplifier's 10 Hz–1 GHz grid at perDecade points per decade on a
// fresh circuit and returns the response and the solver work.
func sweepRun(t *testing.T, kind SolverKind, perDecade, n int) (*Bode, sweepCounts) {
	t.Helper()
	c := buildTestAmp(kind)
	dc, err := c.DC(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.SolverStats = new(SolverStats)
	b, err := c.ACSweepHead(dc, c.Node("out"), 10, 1e9, perDecade, n)
	if err != nil {
		t.Fatal(err)
	}
	st := c.SolverStats
	return b, sweepCounts{st.Factorizations.Load(), st.Solves.Load(), st.Symbolic.Load()}
}

// sameSamples reports the first sample where got differs in any bit
// from the leading samples of want, or -1.
func sameSamples(got, want *Bode) int {
	for i := range got.H {
		if math.Float64bits(got.Freq[i]) != math.Float64bits(want.Freq[i]) ||
			math.Float64bits(real(got.H[i])) != math.Float64bits(real(want.H[i])) ||
			math.Float64bits(imag(got.H[i])) != math.Float64bits(imag(want.H[i])) {
			return i
		}
	}
	return -1
}

// sweepHeads are the point counts the sweep tests cover: one point, a
// block less one, a block, a block plus one, and whole grids of 57 and
// 73 points (7 and 9 points per decade over eight decades), which end
// in partial blocks of 1 point.
var sweepHeads = []struct{ perDecade, n int }{
	{9, 1}, {9, acBlock - 1}, {9, acBlock}, {9, acBlock + 1}, {7, 57}, {9, 73},
}

// TestACSweepWorkerDeterminism pins the block sweep's contract on fresh
// circuits: the Bode response and the solver counters are the same on
// every run and whether or not scheduler slots are free (a sweep runs
// inside Monte-Carlo and gradient workers as well as alone), because
// each point runs its own refactor and solve arithmetic in the
// workspace, whichever block it lands in.
func TestACSweepWorkerDeterminism(t *testing.T) {
	for _, h := range sweepHeads {
		release := sched.Default().HoldAll()
		ref, refStats := sweepRun(t, SolverSparse, h.perDecade, h.n)
		release()
		if len(ref.H) != h.n {
			t.Fatalf("%d/dec n=%d: %d points", h.perDecade, h.n, len(ref.H))
		}
		// One factorization seeds the workspace (the circuit's first, so
		// symbolic), then each point is one factorization and one solve.
		if want := (sweepCounts{int64(h.n) + 1, int64(h.n), 1}); refStats != want {
			t.Fatalf("%d/dec n=%d: counters %+v, want %+v",
				h.perDecade, h.n, refStats, want)
		}
		for run := 0; run < 3; run++ {
			got, gotStats := sweepRun(t, SolverSparse, h.perDecade, h.n)
			if len(got.H) != len(ref.H) {
				t.Fatalf("n=%d run %d: %d points, want %d", h.n, run, len(got.H), len(ref.H))
			}
			if i := sameSamples(got, ref); i >= 0 {
				t.Fatalf("n=%d run %d: H[%d] = %v, want bit-identical %v", h.n, run, i, got.H[i], ref.H[i])
			}
			if gotStats != refStats {
				t.Fatalf("n=%d run %d: %+v, want %+v as with slots held", h.n, run, gotStats, refStats)
			}
		}
	}
}

// TestACSweepHeadMatchesSweep pins the point-limited sweep's contract on
// one reused circuit: after a full sweep, every head's samples are
// bit-identical to the full sweep's leading samples, with the solver
// counters of exactly its own points, on both backends and with
// scheduler slots held or free, so a measurement reading only point 0
// (the low-frequency gain) gets the full sweep's value. The circuit's
// kept sweep state — the workspace rebound by every sweep, its lane
// buffers resized between one and acBlock lanes, and the cached
// frequency grid — must not leak from one sweep into the next: sweeps
// over other grids must match fresh circuits, and a return to the first
// grid must match the first full sweep.
func TestACSweepHeadMatchesSweep(t *testing.T) {
	for _, kind := range []SolverKind{SolverSparse, SolverDense} {
		c := buildTestAmp(kind)
		dc, err := c.DC(DCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out := c.Node("out")
		c.SolverStats = new(SolverStats)
		counts := func() sweepCounts {
			st := c.SolverStats
			return sweepCounts{st.Factorizations.Load(), st.Solves.Load(), st.Symbolic.Load()}
		}
		sweep := func(fStart float64, perDecade, n int) (*Bode, sweepCounts) {
			t.Helper()
			before := counts()
			b, err := c.ACSweepHead(dc, out, fStart, 1e9, perDecade, n)
			if err != nil {
				t.Fatal(err)
			}
			after := counts()
			return b, sweepCounts{after.factorizations - before.factorizations,
				after.solves - before.solves, after.symbolic - before.symbolic}
		}
		full, _ := sweep(10, 9, 0)
		if len(full.H) != 73 {
			t.Fatalf("%v: full grid has %d points, want 73", kind, len(full.H))
		}
		for _, held := range []bool{true, false} {
			for _, n := range []int{1, 2, acBlock - 1, acBlock, acBlock + 1, 57, 73, 76} {
				release := func() {}
				if held {
					release = sched.Default().HoldAll()
				}
				head, work := sweep(10, 9, n)
				release()
				want := min(n, len(full.H))
				if len(head.H) != want {
					t.Fatalf("%v n=%d: %d points, want %d", kind, n, len(head.H), want)
				}
				if i := sameSamples(head, full); i >= 0 {
					t.Fatalf("%v n=%d held=%v: sample %d = (%g, %v), want bit-identical (%g, %v)",
						kind, n, held, i, head.Freq[i], head.H[i], full.Freq[i], full.H[i])
				}
				// The sparse sweep factors once more to seed the workspace.
				seed := int64(0)
				if kind == SolverSparse {
					seed = 1
				}
				if wantWork := (sweepCounts{int64(want) + seed, int64(want), 0}); work != wantWork {
					t.Fatalf("%v n=%d held=%v: head did %+v, want %+v", kind, n, held, work, wantWork)
				}
			}
		}
		// Other grids rebuild the cached one; each must match a fresh
		// circuit's sweep, and the first grid must come back unchanged.
		for _, g := range []struct {
			fStart    float64
			perDecade int
		}{{10, 7}, {100, 9}} {
			got, _ := sweep(g.fStart, g.perDecade, 0)
			fresh := buildTestAmp(kind)
			fdc, err := fresh.DC(DCOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.ACSweep(fdc, fresh.Node("out"), g.fStart, 1e9, g.perDecade)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.H) != len(want.H) {
				t.Fatalf("%v %g Hz @ %d/dec: %d points, fresh circuit %d", kind, g.fStart, g.perDecade, len(got.H), len(want.H))
			}
			if i := sameSamples(got, want); i >= 0 {
				t.Fatalf("%v %g Hz @ %d/dec: sample %d = (%g, %v), fresh circuit (%g, %v)",
					kind, g.fStart, g.perDecade, i, got.Freq[i], got.H[i], want.Freq[i], want.H[i])
			}
		}
		back, _ := sweep(10, 9, 0)
		if len(back.H) != len(full.H) {
			t.Fatalf("%v: back on the first grid, %d points, want %d", kind, len(back.H), len(full.H))
		}
		if i := sameSamples(back, full); i >= 0 {
			t.Fatalf("%v: back on the first grid, sample %d = (%g, %v), want bit-identical (%g, %v)",
				kind, i, back.Freq[i], back.H[i], full.Freq[i], full.H[i])
		}
	}
}

// TestACNodeMatchesAC pins the node-only AC solve to AC: the observed
// voltage is bit-identical, on both backends and for every node
// (ground included), and the solver counters advance the same.
func TestACNodeMatchesAC(t *testing.T) {
	for _, kind := range []SolverKind{SolverSparse, SolverDense} {
		c := buildTestAmp(kind)
		dc, err := c.DC(DCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		omega := 2 * math.Pi * 1e4
		if _, err := c.AC(dc, omega); err != nil { // the symbolic analysis
			t.Fatal(err)
		}
		c.SolverStats = new(SolverStats)
		counts := func() sweepCounts {
			st := c.SolverStats
			return sweepCounts{st.Factorizations.Load(), st.Solves.Load(), st.Symbolic.Load()}
		}
		for node := groundIndex; node < c.NumNodes(); node++ {
			before := counts()
			r, err := c.AC(dc, omega)
			if err != nil {
				t.Fatal(err)
			}
			mid := counts()
			v, err := c.ACNode(dc, omega, node)
			if err != nil {
				t.Fatal(err)
			}
			after := counts()
			want := r.Voltage(node)
			if math.Float64bits(real(v)) != math.Float64bits(real(want)) ||
				math.Float64bits(imag(v)) != math.Float64bits(imag(want)) {
				t.Fatalf("%v node %d: ACNode %v, AC %v", kind, node, v, want)
			}
			acWork := sweepCounts{mid.factorizations - before.factorizations, mid.solves - before.solves, mid.symbolic - before.symbolic}
			nodeWork := sweepCounts{after.factorizations - mid.factorizations, after.solves - mid.solves, after.symbolic - mid.symbolic}
			if acWork != nodeWork {
				t.Fatalf("%v node %d: ACNode did %+v, AC %+v", kind, node, nodeWork, acWork)
			}
		}
	}
}

// fickleCap is a capacitor whose AC stamp appears only above a cutover
// frequency. Its matrix structure differs between the sweep's ω=0 and
// ω=1 affine probes, so ACSweep must detect the mismatch and fall back
// to per-point assembly.
type fickleCap struct {
	p, n int
	c    float64
}

func (d *fickleCap) Name() string { return "CFICKLE" }

func (d *fickleCap) StampDC(linalg.Stamper, linalg.Vector, linalg.Vector, *stampCtx) {}

func (d *fickleCap) StampAC(a linalg.CStamper, _ []complex128, omega float64, _ linalg.Vector) {
	if omega <= 0.5 {
		return
	}
	y := complex(0, omega*d.c)
	addAC(a, d.p, d.p, y)
	addAC(a, d.n, d.n, y)
	addAC(a, d.p, d.n, -y)
	addAC(a, d.n, d.p, -y)
}

// TestACSweepAffineFallback drives the sweep's snapshot-mismatch path: a
// device stamping extra structure only at the ω=1 probe invalidates the
// affine capture, and the sweep must still agree with per-point AC.
func TestACSweepAffineFallback(t *testing.T) {
	for _, kind := range []SolverKind{SolverDense, SolverSparse} {
		c := buildTestAmp(kind)
		c.Add(&fickleCap{p: c.Node("out"), n: c.Node(Ground), c: 2e-12})
		dc, err := c.DC(DCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out := c.Node("out")
		bode, err := c.ACSweep(dc, out, 10, 1e9, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range bode.Freq {
			r, err := c.AC(dc, 2*math.Pi*f)
			if err != nil {
				t.Fatal(err)
			}
			want := r.Voltage(out)
			d := bode.H[i] - want
			mag := math.Hypot(real(d), imag(d))
			scale := math.Max(math.Hypot(real(want), imag(want)), 1e-12)
			if mag/scale > 1e-9 {
				t.Errorf("%v: fallback sweep H(%g Hz) = %v, direct %v", kind, f, bode.H[i], want)
			}
		}
	}
}

// notchShunt is an admittance on an otherwise isolated node that, with
// the gmin leak, vanishes exactly at one angular frequency w of the
// sweep's affine family: its ω=0 and ω=1 probes stamp −gmin − jw and
// −gmin + j(1 − w), so the sweep rebuilds the entry as exactly
// −jw + jω·1 and the node's column is all zero at ω = w.
type notchShunt struct {
	node int
	w    float64
}

func (d *notchShunt) Name() string { return "YNOTCH" }

func (d *notchShunt) StampDC(linalg.Stamper, linalg.Vector, linalg.Vector, *stampCtx) {}

func (d *notchShunt) StampAC(a linalg.CStamper, _ []complex128, omega float64, _ linalg.Vector) {
	addAC(a, d.node, d.node, complex(-1e-12, omega-d.w))
}

// TestACSweepFailureStopsAtFirstPoint drives a sweep point into a
// singular lane, at the start, in the middle and at the end of a block,
// and checks the sweep fails as a point-by-point one would: the error
// names the failing point's variable, and the counters cover exactly
// the points up to it.
func TestACSweepFailureStopsAtFirstPoint(t *testing.T) {
	for _, at := range []int{0, 1, acBlock + 3, 2*acBlock - 1, 40} {
		c := buildTestAmp(SolverSparse)
		iso := c.Node("iso")
		grid, err := c.sweepGrid(10, 1e9, 9)
		if err != nil {
			t.Fatal(err)
		}
		c.Add(&notchShunt{node: iso, w: grid.omega[at]})
		dc, err := c.DC(DCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		c.SolverStats = new(SolverStats)
		_, err = c.ACSweep(dc, c.Node("out"), 10, 1e9, 9)
		if err == nil {
			t.Fatalf("point %d: sweep through a singular point succeeded", at)
		}
		if !strings.Contains(err.Error(), `"iso"`) || !strings.Contains(err.Error(), "singular") {
			t.Fatalf("point %d: error %q does not name the singular variable", at, err)
		}
		st := c.SolverStats
		got := sweepCounts{st.Factorizations.Load(), st.Solves.Load(), st.Symbolic.Load()}
		// The seeding factorization fails itself when the first point is
		// singular; otherwise it and points 0..at each factor once.
		want := sweepCounts{int64(at) + 2, int64(at), 1}
		if at == 0 {
			want = sweepCounts{1, 0, 1}
		}
		if got != want {
			t.Fatalf("point %d: counters %+v, want %+v", at, got, want)
		}
	}
}

// TestBodePhaseCache checks the one-pass unwrapped-phase cache against a
// from-scratch per-index unwrap (the previous O(n²) implementation), in
// every query order. The synthetic response rotates 1.9 rad per sample,
// so the principal phase wraps many times across the sweep and the
// unwrap has real work to do.
func TestBodePhaseCache(t *testing.T) {
	const npts = 40
	bode := &Bode{Freq: make([]float64, npts), H: make([]complex128, npts)}
	for k := range bode.H {
		bode.Freq[k] = math.Pow(10, 1+float64(k)/8)
		bode.H[k] = cmplx.Rect(1+0.03*float64(k), -1.9*float64(k))
	}
	// Reference: unwrap from sample 0 up to i, independently per query.
	ref := func(i int) float64 {
		phase := cmplx.Phase(bode.H[0])
		for k := 1; k <= i; k++ {
			p := cmplx.Phase(bode.H[k])
			for p-phase > math.Pi {
				p -= 2 * math.Pi
			}
			for p-phase < -math.Pi {
				p += 2 * math.Pi
			}
			phase = p
		}
		return phase * 180 / math.Pi
	}
	// Query back to front first, so a cache built lazily in query order
	// (rather than in one forward pass) would be caught.
	for i := len(bode.H) - 1; i >= 0; i-- {
		if got, want := bode.PhaseDeg(i), ref(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("PhaseDeg(%d) = %v, want %v", i, got, want)
		}
	}
	for i := range bode.H {
		if got, want := bode.MagDB(i), 20*math.Log10(cmplx.Abs(bode.H[i])); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MagDB(%d) = %v, want %v", i, got, want)
		}
	}
	// The rotation accumulates far past ±180°; a cache that returned the
	// principal value instead of the unwrapped phase would stay inside it.
	if last := bode.PhaseDeg(npts - 1); last > -360 {
		t.Fatalf("fixture too tame: final unwrapped phase %.1f°", last)
	}
}

// TestACSweepRejectsInvalidGrid: bounds that are NaN, not increasing or
// whose ratio overflows, and grids over MaxSweepPoints, are errors from
// SweepPoints and ACSweepHead rather than a makeslice panic; a valid
// sweep on the same circuit afterwards still matches a fresh one.
func TestACSweepRejectsInvalidGrid(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, g := range []struct {
		fStart, fStop float64
		perDecade     int
	}{
		{1e-300, 1e300, 8}, // ratio overflows to +Inf
		{nan, 1e9, 8},
		{10, nan, 8},
		{nan, nan, 8},
		{10, inf, 8},
		{inf, inf, 8},
		{0, 1e9, 8},
		{1e9, 10, 8},
		{10, 1e9, 0},
		{10, 1e9, MaxSweepPoints / 8},  // 8 decades: just over the cap
		{1e-10, 1e10, math.MaxInt / 2}, // span far past any int
	} {
		if n, err := SweepPoints(g.fStart, g.fStop, g.perDecade); err == nil {
			t.Errorf("SweepPoints(%g, %g, %d) = %d, want an error", g.fStart, g.fStop, g.perDecade, n)
		}
		c := buildTestAmp(SolverSparse)
		dc, err := c.DC(DCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ACSweepHead(dc, c.Node("out"), g.fStart, g.fStop, g.perDecade, 1); err == nil {
			t.Errorf("ACSweepHead over [%g, %g] @ %d/dec: no error", g.fStart, g.fStop, g.perDecade)
		}
		got, err := c.ACSweep(dc, c.Node("out"), 10, 1e9, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := sweepRun(t, SolverSparse, 5, 0); sameSamples(got, want) >= 0 || len(got.H) != len(want.H) {
			t.Errorf("valid sweep after refusing [%g, %g] differs from a fresh circuit's", g.fStart, g.fStop)
		}
	}

	// Valid grids keep the arithmetic they always had.
	for _, g := range []struct {
		fStart, fStop float64
		perDecade     int
	}{
		{10, 1e9, 8}, {100, 1e9, 8}, {1, 1e6, 20}, {10, 1e9, 4}, {1e-300, 1e-200, 8}, {1, 10, MaxSweepPoints - 1},
	} {
		want := int(math.Ceil(math.Log10(g.fStop/g.fStart)*float64(g.perDecade))) + 1
		if n, err := SweepPoints(g.fStart, g.fStop, g.perDecade); err != nil || n != want {
			t.Errorf("SweepPoints(%g, %g, %d) = %d, %v; want %d", g.fStart, g.fStop, g.perDecade, n, err, want)
		}
	}
}
