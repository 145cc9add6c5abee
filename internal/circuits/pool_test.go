package circuits

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"specwise/internal/problem"
	"specwise/internal/rng"
)

// TestPooledBenchMatchesFresh is the oracle for the pooled testbenches:
// every Eval, EvalSubset and Constraints result of a problem, whose calls
// share a free list of reused benches, equals bit for bit the result of
// a bench built fresh (topology, then set) for that one call. The pooled
// calls run concurrently and in shuffled order, so each bench serves a
// random sequence of points, full and per-spec flows and constraint
// solves. Every eighth point has a NaN width, on which the DC solve
// fails, so benches are also reused right after a failed solve. The
// problem's simulator effort counters (Newton iterations, warm starts,
// factorizations, solves, symbolic factorizations) must equal those of
// the fresh benches as well: they may not depend on which bench a call
// gets.
func TestPooledBenchMatchesFresh(t *testing.T) {
	const points = 200
	for _, tc := range []struct {
		name string
		mk   func() (*problem.Problem, *simHarness)
	}{
		{"ota", otaProblem},
		{"miller", millerProblem},
		{"foldedcascode", foldedCascodeProblem},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := tc.mk()
			_, fresh := tc.mk()
			r := rng.New(0xf00d)
			ds, ss, ths, _ := randomPoints(p, r, points)

			// Job j of a point: -1 is Constraints, nspec is the full
			// Eval, 0 ≤ j < nspec is EvalSubset for spec j alone.
			nspec := p.NumSpecs()
			perPoint := nspec + 2
			got := make([][]float64, points*perPoint)
			errs := make([]error, len(got))
			order := r.Perm(len(got))
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						n := int(next.Add(1)) - 1
						if n >= len(order) {
							return
						}
						job := order[n]
						k, j := job/perPoint, job%perPoint-1
						switch {
						case j < 0:
							got[job], errs[job] = p.Constraints(ds[k])
						case j == nspec:
							got[job], errs[job] = p.Eval(ds[k], ss[k], ths[k])
						default:
							want := make([]bool, nspec)
							want[j] = true
							got[job], errs[job] = p.EvalSubset(ds[k], ss[k], ths[k], want)
						}
					}
				}()
			}
			wg.Wait()

			// The oracle: one new bench per call, in point order.
			newBench := func(d, s, th []float64) *testbench {
				tb := fresh.arm(fresh.build())
				fresh.set(tb, d, s, th)
				return tb
			}
			for job := range got {
				if errs[job] != nil {
					t.Fatal(errs[job])
				}
				k, j := job/perPoint, job%perPoint-1
				var want []float64
				switch {
				case j < 0:
					want = newBench(ds[k], fresh.s0, fresh.theta0).constraints()
				case j == nspec:
					perf, _ := newBench(ds[k], ss[k], ths[k]).evaluate(fresh.fStart, fresh.fStop, measureFull)
					want = fresh.report(perf)
				default:
					f := fresh.fields[j]
					perf, _ := newBench(ds[k], ss[k], ths[k]).evaluate(fresh.fStart, fresh.fStop, f.need)
					want = make([]float64, nspec)
					for i := range want {
						want[i] = math.NaN()
					}
					want[j] = f.get(perf)
				}
				if len(got[job]) != len(want) {
					t.Fatalf("point %d job %d: %d values, want %d", k, j, len(got[job]), len(want))
				}
				for i := range want {
					if math.Float64bits(got[job][i]) != math.Float64bits(want[i]) {
						t.Errorf("point %d job %d entry %d: pooled %v, fresh %v (d=%v θ=%v)",
							k, j, i, got[job][i], want[i], ds[k], ths[k])
					}
				}
			}

			pooled, ref := p.SimStats(), fresh.counters()
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"NewtonIters", pooled.NewtonIters, ref.NewtonIters},
				{"WarmStarts", pooled.WarmStarts, ref.WarmStarts},
				{"WarmConverged", pooled.WarmConverged, ref.WarmConverged},
				{"Fallbacks", pooled.Fallbacks, ref.Fallbacks},
				{"Factorizations", pooled.Factorizations, ref.Factorizations},
				{"Solves", pooled.Solves, ref.Solves},
				{"SymbolicFacts", pooled.SymbolicFacts, ref.SymbolicFacts},
			} {
				if c.got != c.want {
					t.Errorf("%s: pooled %d, fresh %d", c.name, c.got, c.want)
				}
			}
		})
	}
}
