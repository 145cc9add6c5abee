package circuits

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"specwise/internal/problem"
	"specwise/internal/rng"
)

// TestEvalSpecMatchesEval is the oracle for the subset evaluators:
// EvalSubset(d, s, θ, want) returns Eval(d, s, θ)[i] bit for bit at every
// wanted spec i and NaN at every other, for every opamp problem, at
// random design, statistical and operating points. The one-hot masks,
// SpecValue's per-spec evaluations, are checked at every point; every
// nonempty mask (2^6 − 1 = 63 per problem) at the first maskPoints
// points. Every eighth point has a NaN transistor width, on which the DC
// solve fails; every wanted value must then be NaN too. The evaluations
// run concurrently, as they do under the parallel worst-case searches
// and Monte-Carlo samples, so the race detector sees EvalSubset and Eval
// sharing the problem's symbolic cache and effort counters.
func TestEvalSpecMatchesEval(t *testing.T) {
	const points, maskPoints = 200, 16
	for _, tc := range []struct {
		name string
		mk   func() *problem.Problem
	}{
		{"ota", OTAProblem},
		{"miller", MillerProblem},
		{"foldedcascode", FoldedCascodeProblem},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mk()
			if p.EvalSubset == nil {
				t.Fatal("EvalSubset is nil")
			}
			ds, ss, ths, broken := randomPoints(p, rng.New(0x5bec), points)

			// One job per (point, mask): mask 0 is the full Eval, bit i
			// of a nonzero mask wants spec i.
			nspec := p.NumSpecs()
			type job struct{ k, mask int }
			var jobs []job
			for k := 0; k < points; k++ {
				jobs = append(jobs, job{k, 0})
				for mask := 1; mask < 1<<nspec; mask++ {
					if k < maskPoints || mask&(mask-1) == 0 {
						jobs = append(jobs, job{k, mask})
					}
				}
			}
			want := func(mask int) []bool {
				w := make([]bool, nspec)
				for i := range w {
					w[i] = mask>>i&1 == 1
				}
				return w
			}
			got := make([][]float64, len(jobs))
			errs := make([]error, len(jobs))
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						n := int(next.Add(1)) - 1
						if n >= len(jobs) {
							return
						}
						jb := jobs[n]
						if jb.mask == 0 {
							got[n], errs[n] = p.Eval(ds[jb.k], ss[jb.k], ths[jb.k])
						} else {
							got[n], errs[n] = p.EvalSubset(ds[jb.k], ss[jb.k], ths[jb.k], want(jb.mask))
						}
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}

			full := make([][]float64, points)
			for n, jb := range jobs {
				if jb.mask == 0 {
					full[jb.k] = got[n]
				}
			}
			for k := range full {
				for i, v := range full[k] {
					if broken[k] && !math.IsNaN(v) {
						t.Errorf("point %d spec %s: NaN width gave %v, want NaN (DC failure)",
							k, p.Specs[i].Name, v)
					}
				}
			}
			for n, jb := range jobs {
				if jb.mask == 0 {
					continue
				}
				if len(got[n]) != nspec {
					t.Fatalf("point %d mask %#x: %d values, want %d", jb.k, jb.mask, len(got[n]), nspec)
				}
				for i, w := range want(jb.mask) {
					v := got[n][i]
					switch {
					case w && math.Float64bits(v) != math.Float64bits(full[jb.k][i]):
						t.Errorf("point %d mask %#x spec %s: EvalSubset = %v, Eval = %v (d=%v θ=%v)",
							jb.k, jb.mask, p.Specs[i].Name, v, full[jb.k][i], ds[jb.k], ths[jb.k])
					case !w && !math.IsNaN(v):
						t.Errorf("point %d mask %#x spec %s: unwanted value %v, want NaN",
							jb.k, jb.mask, p.Specs[i].Name, v)
					}
				}
			}
		})
	}
}

// randomPoints draws n evaluation points: designs uniform in the box
// (log-uniform on log-scale parameters), statistical points from
// N(0, 4I) to reach the distribution's tails, operating points uniform
// in Θ. broken marks the points whose design has a NaN width.
func randomPoints(p *problem.Problem, r *rng.Rand, n int) (ds, ss, ths [][]float64, broken []bool) {
	var widths []int
	for k, prm := range p.Design {
		if strings.HasPrefix(prm.Name, "W") {
			widths = append(widths, k)
		}
	}
	for j := 0; j < n; j++ {
		d := make([]float64, p.NumDesign())
		for k, prm := range p.Design {
			u := r.Float64()
			if prm.LogScale {
				d[k] = prm.Lo * math.Pow(prm.Hi/prm.Lo, u)
			} else {
				d[k] = prm.Lo + u*(prm.Hi-prm.Lo)
			}
		}
		bad := j%8 == 7
		if bad {
			d[widths[r.Intn(len(widths))]] = math.NaN()
		}
		s := make([]float64, p.NumStat())
		for i := range s {
			s[i] = 2 * r.NormFloat64()
		}
		th := make([]float64, len(p.Theta))
		for i, op := range p.Theta {
			th[i] = op.Lo + r.Float64()*(op.Hi-op.Lo)
		}
		ds, ss, ths, broken = append(ds, d), append(ss, s), append(ths, th), append(broken, bad)
	}
	return ds, ss, ths, broken
}
