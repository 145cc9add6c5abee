package circuits

import (
	"testing"

	"specwise/internal/core"
	"specwise/internal/linmodel"
	"specwise/internal/problem"
	"specwise/internal/wcd"
)

// TestBiasPoints guards the operating points the whole evaluation flow
// depends on: every probed (d, s, θ) point must simulate, the functional
// constraints must evaluate at every probed design, and the designs the
// Table-1 run passes through must survive the worst-case analysis, the
// model build and the Monte-Carlo verification.
func TestBiasPoints(t *testing.T) {
	fcLocal := func(p *problem.Problem, shifts map[string]float64) []float64 {
		s := make([]float64, p.NumStat())
		for name, v := range shifts {
			k := FoldedCascodeVariations().LocalIndex(name)
			if k < 0 {
				t.Fatalf("missing local parameter %s", name)
			}
			s[k] = v
		}
		return s
	}
	global := func(p *problem.Problem, shifts ...float64) []float64 {
		s := make([]float64, p.NumStat())
		copy(s, shifts)
		return s
	}
	corners := func(ts ...[2]float64) []point {
		pts := make([]point, len(ts))
		for i, th := range ts {
			pts[i].theta = []float64{th[0], th[1]}
		}
		return pts
	}

	for _, tc := range []struct {
		name   string
		build  func() *problem.Problem
		design []float64 // nil = initial design
		// points builds the probed (s, θ) points; nil s is the nominal
		// statistical point and nil θ the nominal operating point.
		points func(p *problem.Problem) []point
		// consHold requires every constraint to hold at the design.
		consHold bool
		// dcValid requires a valid DC solution at the first point (a
		// failed DC shows up as a negative first performance).
		dcValid bool
		// wcSeed, when set, runs the per-spec worst-case searches and
		// the spec-wise model build at the design.
		wcSeed uint64
		// mcSamples, when set, runs the Monte-Carlo verification.
		mcSamples int
	}{
		{
			name:    "foldedcascode-nominal",
			build:   FoldedCascodeProblem,
			points:  func(*problem.Problem) []point { return []point{{}} },
			dcValid: true,
		},
		{
			// CMRR/ft sensitivity to input-pair mismatch and the operating
			// corners, which calibrates the Table-1 reproduction.
			name:  "foldedcascode-sensitivity",
			build: FoldedCascodeProblem,
			points: func(p *problem.Problem) []point {
				pts := []point{{}}
				for _, k := range []float64{0.5, 1, 2, 3} {
					pts = append(pts, point{s: fcLocal(p, map[string]float64{"M1.dVth": k, "M2.dVth": -k})})
				}
				pts = append(pts,
					point{s: fcLocal(p, map[string]float64{"M1.dVth": 2, "M2.dVth": 2})},
					point{s: fcLocal(p, map[string]float64{"M1.dBeta": 2, "M2.dBeta": -2})},
					point{s: fcLocal(p, map[string]float64{"M3.dVth": 2, "M4.dVth": -2})},
					point{s: global(p, 2, 2)},
					point{s: global(p, 0, 0, -2, -2)},
				)
				return append(pts, corners(
					[2]float64{-40, 3.0}, [2]float64{-40, 3.6}, [2]float64{125, 3.0},
					[2]float64{125, 3.6}, [2]float64{27, 3.0}, [2]float64{125, 3.3})...)
			},
		},
		{
			name:  "miller-nominal",
			build: MillerProblem,
			points: func(p *problem.Problem) []point {
				pts := corners([2]float64{27, 3.3}, [2]float64{-40, 3.0}, [2]float64{-40, 3.6},
					[2]float64{125, 3.0}, [2]float64{125, 3.6})
				for _, sv := range [][]float64{{2, 0, 0, 0}, {-2, 0, 0, 0}, {0, 2, 0, 0}, {0, 0, -2, 0}, {0, 0, 0, -2}} {
					pts = append(pts, point{s: global(p, sv...)})
				}
				return pts
			},
			consHold: true,
		},
		{
			name:     "ota-nominal",
			build:    OTAProblem,
			points:   func(*problem.Problem) []point { return []point{{}} },
			consHold: true,
			dcValid:  true,
		},
		{
			// The design after the first Table-1 iteration, where model
			// poisoning once showed up.
			name:   "foldedcascode-iter1-models",
			build:  FoldedCascodeProblem,
			design: []float64{97.1, 1.73, 38.3, 2, 50, 57.1, 57.1, 148},
			wcSeed: 43,
		},
		{
			name:      "foldedcascode-final-mc",
			build:     FoldedCascodeProblem,
			design:    []float64{233, 1.24, 79.7, 2, 16, 67.4, 23.3, 292},
			mcSamples: 500,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()
			d := tc.design
			if d == nil {
				d = p.InitialDesign()
			}
			if tc.points != nil {
				for j, pt := range tc.points(p) {
					s, th := pt.s, pt.theta
					if s == nil {
						s = make([]float64, p.NumStat())
					}
					if th == nil {
						th = p.NominalTheta()
					}
					vals, err := p.Eval(d, s, th)
					if err != nil {
						t.Fatalf("point %d (s=%v, θ=%v): %v", j, s, th, err)
					}
					if j == 0 && tc.dcValid && vals[0] < 0 {
						t.Fatalf("DC failed at the design: %s = %v", p.Specs[0].Name, vals[0])
					}
				}
				cons, err := p.Constraints(d)
				if err != nil {
					t.Fatal(err)
				}
				for i, name := range p.ConstraintNames {
					if tc.consHold && cons[i] < 0 {
						t.Errorf("constraint %s violated: %v", name, cons[i])
					}
				}
			}
			if tc.wcSeed == 0 && tc.mcSamples == 0 {
				return
			}
			zeroS := make([]float64, p.NumStat())
			thetaRes, err := wcd.WorstCaseTheta(p, d, zeroS)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wcSeed != 0 {
				wcs := make([]*wcd.WorstCase, p.NumSpecs())
				for i := range p.Specs {
					theta := thetaRes.PerSpec[i]
					margin := func(s []float64) (float64, error) {
						vals, err := p.Eval(d, s, theta)
						if err != nil {
							return 0, err
						}
						return p.Specs[i].Margin(vals[i]), nil
					}
					if wcs[i], err = wcd.FindWorstCase(margin, p.NumStat(), wcd.Options{Seed: tc.wcSeed}); err != nil {
						t.Fatalf("%s worst-case search: %v", p.Specs[i].Name, err)
					}
				}
				if _, err := linmodel.Build(p, d, wcs, thetaRes.PerSpec, linmodel.BuildOptions{MirrorSpecs: true}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.mcSamples != 0 {
				if _, err := core.VerifyMC(p, d, thetaRes.PerSpec, tc.mcSamples, 77); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// point is one probed statistical/operating point of TestBiasPoints.
type point struct{ s, theta []float64 }
