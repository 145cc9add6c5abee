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

// TestEvalSpecMatchesEval is the oracle for the per-spec evaluators:
// EvalSpec(d, s, θ, i) equals Eval(d, s, θ)[i] bit for bit, for every
// spec of every opamp problem, at random design, statistical and
// operating points. Every eighth point has a NaN transistor width, on
// which the DC solve fails; both paths must then report NaN. The evaluations run
// concurrently, as they do under the parallel worst-case searches, so
// the race detector sees EvalSpec and Eval sharing the problem's
// symbolic cache and effort counters.
func TestEvalSpecMatchesEval(t *testing.T) {
	const points = 200
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
			if p.EvalSpec == nil {
				t.Fatal("EvalSpec is nil")
			}
			ds, ss, ths, broken := randomPoints(p, rng.New(0x5bec), points)

			// One job per (point, evaluator): evaluator -1 is the full
			// Eval, evaluator i ≥ 0 is EvalSpec for spec i.
			nspec := p.NumSpecs()
			full := make([][]float64, points)
			per := make([][]float64, points)
			for k := range per {
				per[k] = make([]float64, nspec)
			}
			errs := make([]error, points*(nspec+1))
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						job := int(next.Add(1)) - 1
						if job >= len(errs) {
							return
						}
						k, i := job/(nspec+1), job%(nspec+1)-1
						if i < 0 {
							full[k], errs[job] = p.Eval(ds[k], ss[k], ths[k])
						} else {
							per[k][i], errs[job] = p.EvalSpec(ds[k], ss[k], ths[k], i)
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

			for k := range full {
				for i, want := range full[k] {
					if got := per[k][i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("point %d spec %s: EvalSpec = %v, Eval = %v (d=%v θ=%v)",
							k, p.Specs[i].Name, got, want, ds[k], ths[k])
					}
					if broken[k] && !math.IsNaN(want) {
						t.Errorf("point %d spec %s: NaN width gave %v, want NaN (DC failure)",
							k, p.Specs[i].Name, want)
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
