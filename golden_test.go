package specwise

import (
	"math"
	"testing"

	"specwise/internal/paper"
)

// TestPaperSeedTrajectoryGolden pins the paper-seed optimizations at the
// benchmark's option shapes: the effort (simulations plus constraint DC
// solves), the verified yield before and after, and every bit of the
// final design. A change that moves any trajectory, however slightly,
// fails here; one that means to must re-record the goldens on purpose.
func TestPaperSeedTrajectoryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper-seed optimizations")
	}
	for _, tc := range []struct {
		name          string
		p             *Problem
		opts          Options
		sims, csims   int64
		yield0, yield float64
		design        []uint64
	}{
		{
			name: "Table 1 folded cascode", p: FoldedCascode(),
			opts: Options{ModelSamples: 3000, VerifySamples: 150, MaxIterations: 3},
			sims: 19556, csims: 37, yield0: 0, yield: 0.92,
			design: []uint64{
				0x40743a2000000000, 0x3ff013d9d9b922e2, 0x404c104a1e2723ee, 0x3ff6d3005e54503b,
				0x4073beddc6d86a04, 0x4038a000000007ce, 0x404ec80000000000, 0x406ae8d2faaaa146,
			},
		},
		{
			name: "Table 6 Miller", p: Miller(),
			opts: Options{ModelSamples: 10000, VerifySamples: 300, MaxIterations: 4},
			sims: 10549, csims: 30, yield0: 0.34, yield: 1,
			design: []uint64{
				0x402a964cbaf3a55b, 0x4020624dd2f1a9fd, 0x40718c3000000000,
				0x40215e40ce502de9, 0x40209693b1dcbe3e, 0x40183f0f9514df8c,
			},
		},
	} {
		opts := tc.opts
		opts.Seed, opts.HasSeed = paper.Seed, true
		res, err := Optimize(tc.p, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Simulations != tc.sims || res.ConstraintSims != tc.csims {
			t.Errorf("%s: %d simulations + %d constraint DC, want %d + %d",
				tc.name, res.Simulations, res.ConstraintSims, tc.sims, tc.csims)
		}
		y0, y := res.Iterations[0].MCYield, res.Iterations[len(res.Iterations)-1].MCYield
		if y0 != tc.yield0 || y != tc.yield {
			t.Errorf("%s: verified yield %v -> %v, want %v -> %v", tc.name, y0, y, tc.yield0, tc.yield)
		}
		if len(res.FinalDesign) != len(tc.design) {
			t.Fatalf("%s: final design has %d parameters, want %d", tc.name, len(res.FinalDesign), len(tc.design))
		}
		for k, x := range res.FinalDesign {
			if got := math.Float64bits(x); got != tc.design[k] {
				t.Errorf("%s: final design[%d] = %v (%#016x), want %v (%#016x)",
					tc.name, k, x, got, math.Float64frombits(tc.design[k]), tc.design[k])
			}
		}
	}
}
