package spice

import (
	"math"
	"math/cmplx"
	"testing"

	"specwise/internal/linalg"
	"specwise/internal/sched"
)

// TestACSweepWorkerDeterminism pins the parallel sweep's contract: the
// Bode response and the factorization count are bit-identical however
// many workers join, because each point runs the identical LoadValues →
// refactor → solve sequence in a workspace sharing one symbolic
// factorization. The reference sweep runs with every scheduler slot
// held, so the caller sweeps every point alone.
func TestACSweepWorkerDeterminism(t *testing.T) {
	type counts struct{ factorizations, solves int64 }
	sweep := func() (*Bode, counts) {
		c := buildTestAmp(SolverSparse)
		dc, err := c.DC(DCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		c.SolverStats = new(SolverStats)
		b, err := c.ACSweep(dc, c.Node("out"), 10, 1e9, 4)
		if err != nil {
			t.Fatal(err)
		}
		return b, counts{c.SolverStats.Factorizations.Load(), c.SolverStats.Solves.Load()}
	}
	release := sched.Default().HoldAll()
	ref, refStats := sweep()
	release()
	for run := 0; run < 3; run++ {
		got, gotStats := sweep()
		if len(got.H) != len(ref.H) {
			t.Fatalf("run %d: %d points, want %d", run, len(got.H), len(ref.H))
		}
		for i := range ref.H {
			if math.Float64bits(got.Freq[i]) != math.Float64bits(ref.Freq[i]) {
				t.Fatalf("run %d: Freq[%d] = %x, want %x", run, i, got.Freq[i], ref.Freq[i])
			}
			if math.Float64bits(real(got.H[i])) != math.Float64bits(real(ref.H[i])) ||
				math.Float64bits(imag(got.H[i])) != math.Float64bits(imag(ref.H[i])) {
				t.Fatalf("run %d: H[%d] = %v, want bit-identical %v", run, i, got.H[i], ref.H[i])
			}
		}
		if gotStats != refStats {
			t.Fatalf("run %d: %+v, want %+v as with slots held", run, gotStats, refStats)
		}
	}
}

// TestACSweepHeadMatchesSweep pins the point-limited sweep's contract:
// its samples are bit-identical to the leading samples of the full
// sweep, on both backends, so a measurement reading only point 0 (the
// low-frequency gain) gets the full sweep's value.
func TestACSweepHeadMatchesSweep(t *testing.T) {
	for _, kind := range []SolverKind{SolverSparse, SolverDense} {
		c := buildTestAmp(kind)
		dc, err := c.DC(DCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out := c.Node("out")
		full, err := c.ACSweep(dc, out, 10, 1e9, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 5, len(full.H), len(full.H) + 3} {
			head, err := c.ACSweepHead(dc, out, 10, 1e9, 4, n)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(n, len(full.H)); len(head.H) != want {
				t.Fatalf("%v n=%d: %d points, want %d", kind, n, len(head.H), want)
			}
			for i := range head.H {
				if math.Float64bits(head.Freq[i]) != math.Float64bits(full.Freq[i]) ||
					math.Float64bits(real(head.H[i])) != math.Float64bits(real(full.H[i])) ||
					math.Float64bits(imag(head.H[i])) != math.Float64bits(imag(full.H[i])) {
					t.Fatalf("%v n=%d: sample %d = (%g, %v), want bit-identical (%g, %v)",
						kind, n, i, head.Freq[i], head.H[i], full.Freq[i], full.H[i])
				}
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
