// Package report renders the optimizer's iteration records in the layout
// of the paper's tables: one column per performance, blocks of
// (f − f_b, bad samples ‰, Ỹ) per iteration.
package report

import (
	"fmt"
	"io"
	"strings"

	"specwise/internal/core"
	"specwise/internal/problem"
)

// blockLabel names iteration i the way the paper does.
func blockLabel(i int) string {
	switch i {
	case 0:
		return "Initial"
	case 1:
		return "1st Iter."
	case 2:
		return "2nd Iter."
	case 3:
		return "3rd Iter."
	default:
		return fmt.Sprintf("%dth Iter.", i)
	}
}

// OptimizationTrace writes a Table-1/3/4/6-style trace of a run.
func OptimizationTrace(w io.Writer, res *core.Result) {
	p := res.Problem
	cols := make([]string, 0, len(p.Specs))
	for _, s := range p.Specs {
		cols = append(cols, fmt.Sprintf("%s [%s]", s.Name, s.Unit))
	}
	fmt.Fprintf(w, "%-24s", "Performance")
	for _, c := range cols {
		fmt.Fprintf(w, "%14s", c)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-24s", "Specification")
	for _, s := range p.Specs {
		op := ">"
		if s.Kind == problem.LE {
			op = "<"
		}
		fmt.Fprintf(w, "%14s", fmt.Sprintf("%s %g", op, s.Bound))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 24+14*len(cols)))

	for i, it := range res.Iterations {
		fmt.Fprintf(w, "%-24s", blockLabel(i)+"  f-fb")
		for _, st := range it.Specs {
			fmt.Fprintf(w, "%14.3g", st.NominalMargin)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-24s", "  bad samples [permil]")
		for _, st := range it.Specs {
			fmt.Fprintf(w, "%14.1f", st.BadPerMille)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-24s", "  beta (wc distance)")
		for _, st := range it.Specs {
			fmt.Fprintf(w, "%14.2f", st.Beta)
		}
		fmt.Fprintln(w)
		if it.MCYield >= 0 {
			fmt.Fprintf(w, "%-24s", "  MC bad [permil]")
			n := 1
			if it.MCResult != nil && it.MCResult.Estimate.Total > 0 {
				n = it.MCResult.Estimate.Total
			}
			for _, st := range it.Specs {
				fmt.Fprintf(w, "%14.1f", 1000*float64(st.MCBad)/float64(n))
			}
			fmt.Fprintln(w)
			ci := ""
			if it.MCResult != nil && it.MCResult.Estimate.Total > 0 {
				e := it.MCResult.Estimate
				ci = fmt.Sprintf("  (95%% CI [%.1f%%, %.1f%%])", 100*e.Lo, 100*e.Hi)
			}
			fmt.Fprintf(w, "%-24s%14s%s\n", "  Y~ (MC)", fmt.Sprintf("%.1f%%", 100*it.MCYield), ci)
		}
		fmt.Fprintln(w, strings.Repeat("-", 24+14*len(cols)))
	}
	fmt.Fprintf(w, "final design:")
	for k, prm := range p.Design {
		fmt.Fprintf(w, " %s=%.3g%s", prm.Name, res.FinalDesign[k], prm.Unit)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "simulations: %d performance + %d constraint\n",
		res.Simulations, res.ConstraintSims)
}

// ImprovementTable writes a Table-2-style μ/σ improvement comparison
// between two recorded iterations (verification moments must be present).
func ImprovementTable(w io.Writer, res *core.Result, from, to int) {
	p := res.Problem
	a, b := res.Iterations[from], res.Iterations[to]
	fmt.Fprintf(w, "%-10s %18s %18s\n", "Perf.", "dmu/(mu-fb)", "dsigma/sigma")
	for i, s := range p.Specs {
		muA, muB := a.Specs[i].MCMean, b.Specs[i].MCMean
		sgA, sgB := a.Specs[i].MCSigma, b.Specs[i].MCSigma
		// Normalize the mean shift by the initial distance to the bound,
		// signed so that "+" always means improvement, as in the paper.
		distA := muA - s.Bound
		if s.Kind == problem.LE {
			distA = s.Bound - muA
		}
		dmu := (muB - muA) / distA
		if s.Kind == problem.LE {
			dmu = (muA - muB) / distA
		}
		dsg := (sgB - sgA) / sgA
		fmt.Fprintf(w, "%-10s %17.1f%% %17.1f%%\n", s.Name, 100*dmu, 100*dsg)
	}
}
