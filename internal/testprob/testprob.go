// Package testprob provides fixtures shared by the test suites of
// several packages: cheap closed-form test problems for the engine and
// search-backend tests, and the /metrics exposition check for the
// service tests. They live outside the packages under test so that
// core's in-package and external tests, the jobs tests and the binaries'
// tests use the same fixtures, and so that an in-package test and a test
// of a binary check one page format the same way.
package testprob

import "specwise/internal/problem"

// Analytic returns a two-knob linear problem with a known optimum.
// Spec "f" = d0 − 2 + 0.5·s0 must be >= 0; spec "g" = 6 − d0 − d1 +
// 0.5·s1 must be >= 0; constraint c = 8 − d0 − d1 >= 0. Raising d0
// fixes f; the constraint and g cap it.
func Analytic() *problem.Problem {
	return &problem.Problem{
		Name: "analytic",
		Specs: []problem.Spec{
			{Name: "f", Kind: problem.GE, Bound: 0},
			{Name: "g", Kind: problem.GE, Bound: 0},
		},
		Design: []problem.Param{
			{Name: "d0", Init: 0, Lo: -1, Hi: 10},
			{Name: "d1", Init: 0, Lo: -1, Hi: 10},
		},
		StatNames: []string{"s0", "s1"},
		Theta:     []problem.OpRange{{Name: "t", Nominal: 0, Lo: -1, Hi: 1}},
		Eval: func(d, s, th []float64) ([]float64, error) {
			f := d[0] - 2 + 0.5*s[0] - 0.1*th[0]
			g := 6 - d[0] - d[1] + 0.5*s[1] - 0.1*th[0]
			return []float64{f, g}, nil
		},
		ConstraintNames: []string{"cap"},
		Constraints: func(d []float64) ([]float64, error) {
			return []float64{8 - d[0] - d[1]}, nil
		},
	}
}

// Quad returns a one-knob problem with a symmetric quadratic spec whose
// nominal statistical gradient vanishes: q = d0 − 0.25·(s0 − s1)². The
// nominal-point linearization is blind to it; the worst-case
// linearization (with its mirror model) is not.
func Quad() *problem.Problem {
	return &problem.Problem{
		Name:  "quad",
		Specs: []problem.Spec{{Name: "q", Kind: problem.GE, Bound: 0}},
		Design: []problem.Param{
			{Name: "d0", Init: 1, Lo: 0.5, Hi: 4},
		},
		StatNames: []string{"s0", "s1"},
		Theta:     []problem.OpRange{},
		Eval: func(d, s, th []float64) ([]float64, error) {
			diff := s[0] - s[1]
			return []float64{d[0] - 0.25*diff*diff}, nil
		},
	}
}
