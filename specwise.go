// Package specwise is a statistical design toolkit for analog integrated
// circuits, reproducing Schenkel et al., "Mismatch Analysis and Direct
// Yield Optimization by Spec-Wise Linearization and Feasibility-Guided
// Search" (DAC 2001).
//
// It bundles:
//
//   - a direct yield optimizer (Optimize) combining worst-case analysis,
//     spec-wise linearized performance models, a feasibility-guided
//     coordinate search and a simulation-based line search;
//   - a mismatch analysis (AnalyzeMismatch) ranking transistor pairs by
//     the worst-case-point measure of the paper's Sec. 3;
//   - a Monte-Carlo verifier (VerifyYield) implementing the parametric
//     operational yield of Sec. 2 (per-spec worst-case operating points);
//   - ready-made benchmark circuits (FoldedCascode, Miller, OTA) built on
//     an embedded MNA circuit simulator with a level-1 MOS model and
//     Pelgrom mismatch statistics.
//
// The quickest start:
//
//	problem := specwise.OTA()
//	result, err := specwise.Optimize(problem, specwise.Options{})
//
// Everything operates on the Problem abstraction, so custom circuits (or
// non-circuit black boxes) plug in by providing an evaluation callback;
// see the examples directory.
package specwise

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"specwise/internal/circuits"
	"specwise/internal/core"
	"specwise/internal/mismatch"
	"specwise/internal/problem"
	"specwise/internal/wcd"
)

// Re-exported problem-definition types.
type (
	// Problem is the black-box abstraction the optimizer works on.
	Problem = problem.Problem
	// Spec is one performance specification with its bound.
	Spec = problem.Spec
	// Param is a bounded design parameter.
	Param = problem.Param
	// OpRange is one operating parameter with its tolerance range.
	OpRange = problem.OpRange
	// Options configures the yield optimizer.
	Options = core.Options
	// Result is a full optimization run record.
	Result = core.Result
	// Iteration is one recorded optimizer state.
	Iteration = core.Iteration
	// MCResult is a Monte-Carlo verification summary.
	MCResult = core.MCResult
	// ProgressEvent is one optimizer milestone delivered through
	// Options.Progress.
	ProgressEvent = core.ProgressEvent
)

// Spec-kind constants.
const (
	// GE marks specifications of the form f >= bound.
	GE = problem.GE
	// LE marks specifications of the form f <= bound.
	LE = problem.LE
)

// FoldedCascode returns the folded-cascode opamp benchmark problem with
// global and local (Pelgrom mismatch) process variations — the circuit of
// the paper's Tables 1–5.
func FoldedCascode() *Problem { return circuits.FoldedCascodeProblem() }

// Miller returns the two-stage Miller opamp benchmark problem with global
// process variations only — the circuit of the paper's Table 6.
func Miller() *Problem { return circuits.MillerProblem() }

// OTA returns the small five-transistor OTA problem used by the
// quickstart example.
func OTA() *Problem { return circuits.OTAProblem() }

// Circuit builds a built-in benchmark circuit by name ("foldedcascode",
// "miller", "ota", ...); unknown names return an error listing the
// known set.
func Circuit(name string) (*Problem, error) { return circuits.Build(name) }

// Circuits returns the built-in benchmark circuit names, sorted.
func Circuits() []string { return circuits.Names() }

// Algorithms returns the names of the search backends a run's
// Options.Algorithm may select; the empty string picks the default
// ("feasguided", the paper's feasibility-guided search).
func Algorithms() []string { return core.Backends() }

// Optimize runs the full yield optimization on a problem with the
// backend named by Options.Algorithm (the paper's Fig.-6 algorithm by
// default).
func Optimize(p *Problem, opts Options) (*Result, error) {
	return OptimizeContext(context.Background(), p, opts)
}

// OptimizeContext is Optimize with cancellation: the run stops promptly
// (between optimizer stages and Monte-Carlo samples) when ctx is
// cancelled, returning ctx.Err().
func OptimizeContext(ctx context.Context, p *Problem, opts Options) (*Result, error) {
	return core.Optimize(ctx, p, opts)
}

// VerifyYield runs the simulation-based Monte-Carlo analysis of the
// paper's Sec. 2 at a design point: n statistical samples, each spec
// evaluated at its own worst-case operating corner.
func VerifyYield(p *Problem, d []float64, n int, seed uint64) (*MCResult, error) {
	return VerifyYieldContext(context.Background(), p, d, n, seed)
}

// VerifyYieldContext is VerifyYield with cancellation; the Monte-Carlo
// worker pool drains and returns ctx.Err() when ctx is cancelled.
func VerifyYieldContext(ctx context.Context, p *Problem, d []float64, n int, seed uint64) (*MCResult, error) {
	return core.VerifyDesign(ctx, p, d, n, seed, nil)
}

// PairMeasure is one ranked mismatch-pair entry.
type PairMeasure struct {
	// ParamK and ParamL name the two statistical parameters (for the
	// built-in circuits, "<device>.dVth" / "<device>.dBeta").
	ParamK, ParamL string
	// Value is the measure m_kl in [0, 1] (Eq. 9).
	Value float64
}

// MismatchReport ranks the mismatch-sensitive parameter pairs of one spec.
type MismatchReport struct {
	Spec  string
	Beta  float64 // signed worst-case distance of the spec
	Pairs []PairMeasure
}

// AnalyzeMismatch performs the paper's Sec.-3 mismatch analysis at design
// point d: for every spec it finds the worst-case statistical point
// (Eq. 8) and evaluates the pair measure (Eq. 9) over all like-kind local
// parameter pairs. Parameters are grouped by the suffix after the last
// '.', so "M1.dVth" pairs with "M2.dVth" but not with "M2.dBeta"; global
// parameters (no '.') are excluded. Reports are sorted by measure.
func AnalyzeMismatch(p *Problem, d []float64, seed uint64) ([]MismatchReport, error) {
	analyzed, err := mismatch.Analyze(p, d, seed)
	if err != nil {
		return nil, err
	}
	reports := make([]MismatchReport, len(analyzed))
	for i, a := range analyzed {
		rep := MismatchReport{Spec: p.Specs[i].Name, Beta: a.Beta}
		for _, m := range a.Pairs {
			rep.Pairs = append(rep.Pairs, PairMeasure{
				ParamK: p.StatNames[m.K],
				ParamL: p.StatNames[m.L],
				Value:  m.Value,
			})
		}
		reports[i] = rep
	}
	return reports, nil
}

// TopPairs flattens the per-spec reports into the overall ranking the
// paper's Table 5 shows, keeping at most n entries with measure > 0.
// n <= 0 keeps none.
func TopPairs(reports []MismatchReport, n int) []struct {
	Spec string
	PairMeasure
} {
	if n <= 0 {
		return nil
	}
	var all []struct {
		Spec string
		PairMeasure
	}
	for _, r := range reports {
		for _, pm := range r.Pairs {
			if pm.Value > 0 {
				all = append(all, struct {
					Spec string
					PairMeasure
				}{r.Spec, pm})
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Value > all[j].Value })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// DescribeProblem returns a human-readable summary of a problem's specs,
// design space and operating ranges.
func DescribeProblem(p *Problem) string {
	var b strings.Builder
	fmt.Fprintf(&b, "problem %q: %d specs, %d design params, %d statistical params, %d operating params\n",
		p.Name, p.NumSpecs(), p.NumDesign(), p.NumStat(), len(p.Theta))
	for _, s := range p.Specs {
		op := ">="
		if s.Kind == LE {
			op = "<="
		}
		fmt.Fprintf(&b, "  spec %-8s %s %g %s\n", s.Name, op, s.Bound, s.Unit)
	}
	for _, prm := range p.Design {
		fmt.Fprintf(&b, "  design %-6s init %g in [%g, %g] %s\n", prm.Name, prm.Init, prm.Lo, prm.Hi, prm.Unit)
	}
	for _, op := range p.Theta {
		fmt.Fprintf(&b, "  theta %-7s nominal %g in [%g, %g] %s\n", op.Name, op.Nominal, op.Lo, op.Hi, op.Unit)
	}
	return b.String()
}

// RareFailure is the result of a worst-case-guided importance-sampling
// failure analysis of one specification.
type RareFailure struct {
	Spec string
	// Beta is the signed worst-case distance found for the spec.
	Beta float64
	// PFail is the importance-sampled failure probability and StdErr its
	// standard error.
	PFail, StdErr float64
	// Evals counts the simulator calls spent (worst-case search + IS).
	Evals int
}

// EstimateRareFailure quantifies a single spec's failure probability even
// when it is far below the resolution of plain Monte Carlo: it locates
// the spec's worst-case operating corner and worst-case statistical point
// (Eqs. 2 and 8), then runs importance sampling with the proposal density
// shifted onto that point. This is the natural quantitative companion to
// the optimizer: after a run ends at "0 bad samples out of 10,000", this
// tells you whether the true failure rate is 1e-4 or 1e-9.
func EstimateRareFailure(p *Problem, d []float64, specName string, n int, seed uint64) (*RareFailure, error) {
	specIdx := -1
	for i, s := range p.Specs {
		if s.Name == specName {
			specIdx = i
			break
		}
	}
	if specIdx < 0 {
		return nil, fmt.Errorf("specwise: unknown spec %q", specName)
	}
	thetaRes, err := wcd.WorstCaseTheta(p, d, make([]float64, p.NumStat()))
	if err != nil {
		return nil, err
	}
	theta := thetaRes.PerSpec[specIdx]
	wc, err := wcd.SearchSpec(context.Background(), p, d, theta, specIdx, wcd.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	is, err := core.EstimateSpecFailureIS(p, d, specIdx, theta, wc.S, n, seed^0x15a3)
	if err != nil {
		return nil, err
	}
	return &RareFailure{
		Spec:  specName,
		Beta:  wc.Beta,
		PFail: is.PFail, StdErr: is.StdErr,
		Evals: wc.Evals + is.Evals + thetaRes.Evals,
	}, nil
}

// CornerResult is one process/operating corner evaluation.
type CornerResult struct {
	// Name is e.g. "slow-N/fast-P @ T=125 VDD=3.0".
	Name string
	// Sigma is the global statistical excursion applied (±k per global).
	Sigma float64
	// Theta is the operating point used.
	Theta []float64
	// Values are the raw performances; Pass reports all-specs-met.
	Values []float64
	Pass   bool
	// WorstSpec is the spec with the smallest margin at this corner.
	WorstSpec string
}

// AnalyzeCorners runs the classic skew-corner check that precedes any
// statistical analysis: every combination of ±k·σ on the *global*
// statistical parameters crossed with the operating-box corners. Local
// (mismatch) parameters stay nominal — corners model inter-die skew.
// Global parameters are identified by the "g." name prefix used by the
// built-in circuits and yieldspec.
func AnalyzeCorners(p *Problem, d []float64, k float64) ([]CornerResult, error) {
	s := make([]float64, p.NumStat())
	if err := p.CheckPoint(d, s); err != nil {
		return nil, err
	}
	if p.NumSpecs() == 0 {
		return nil, fmt.Errorf("specwise: problem %q has no specs", p.Name)
	}
	var globals []int
	for i, n := range p.StatNames {
		if strings.HasPrefix(n, "g.") {
			globals = append(globals, i)
		}
	}
	thetas := append([][]float64{p.NominalTheta()}, wcd.Corners(p.Theta)...)

	var out []CornerResult
	for mask := 0; mask < 1<<len(globals); mask++ {
		for i := range s {
			s[i] = 0
		}
		name := ""
		for j, gi := range globals {
			sign := -1.0
			tag := "-"
			if mask&(1<<j) != 0 {
				sign, tag = 1, "+"
			}
			s[gi] = sign * k
			name += tag
		}
		for _, th := range thetas {
			vals, err := p.Eval(d, s, th)
			if err != nil {
				return nil, err
			}
			cr := CornerResult{
				Name:   fmt.Sprintf("skew %s @ θ=%v", name, th),
				Sigma:  k,
				Theta:  append([]float64(nil), th...),
				Values: vals,
				Pass:   true,
			}
			worst := 0
			worstMargin := p.Specs[0].Margin(vals[0])
			for i, sp := range p.Specs {
				m := sp.Margin(vals[i])
				if m < worstMargin {
					worst, worstMargin = i, m
				}
				if !sp.Satisfied(vals[i]) {
					cr.Pass = false
				}
			}
			cr.WorstSpec = p.Specs[worst].Name
			out = append(out, cr)
		}
	}
	return out, nil
}
