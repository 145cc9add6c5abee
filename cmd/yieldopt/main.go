// Command yieldopt runs the spec-wise-linearization yield optimizer on one
// of the built-in benchmark circuits and prints the optimization trace.
//
// Usage:
//
//	yieldopt -circuit foldedcascode|miller|ota [-algorithm name] [-iters N]
//	         [-samples N] [-verify N] [-seed N] [-no-constraints] [-nominal] [-v]
//	yieldopt -spec problem.json [...]
//
// With -spec, the problem is built from a JSON + netlist definition (see
// internal/yieldspec) instead of a built-in circuit. The -no-constraints
// and -nominal flags reproduce the paper's Table-3 and Table-4 ablations
// on any circuit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"specwise"
	"specwise/internal/core"
	"specwise/internal/report"
	"specwise/internal/yieldspec"
)

func main() {
	circuit := flag.String("circuit", "ota", "circuit: "+strings.Join(specwise.Circuits(), ", "))
	specFile := flag.String("spec", "", "build the problem from a JSON+netlist definition instead")
	algorithm := flag.String("algorithm", "", "search backend: "+strings.Join(specwise.Algorithms(), ", ")+" (default feasguided)")
	iters := flag.Int("iters", 3, "maximum accepted optimization iterations")
	samples := flag.Int("samples", 10000, "Monte-Carlo samples over the linear models")
	verify := flag.Int("verify", core.DefaultVerifySamples, "simulation-based verification samples")
	seed := flag.Uint64("seed", 1, "random seed")
	noConstraints := flag.Bool("no-constraints", false, "disable functional constraints (Table-3 ablation)")
	nominal := flag.Bool("nominal", false, "linearize at the nominal point (Table-4 ablation)")
	quadratic := flag.Bool("quadratic", false, "radial-quadratic models for quadratic specs (extension)")
	lhs := flag.Bool("lhs", false, "Latin-hypercube model sampling (extension)")
	refineTheta := flag.Int("refine-theta", 0, "golden-section worst-case-theta refinement passes (extension)")
	verbose := flag.Bool("v", false, "log optimizer progress to stderr")
	flag.Parse()

	var p *specwise.Problem
	if *specFile != "" {
		var err error
		p, err = yieldspec.Load(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		var err error
		p, err = specwise.Circuit(*circuit)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	fmt.Print(specwise.DescribeProblem(p))
	var log io.Writer
	if *verbose {
		log = os.Stderr
	}
	res, err := specwise.Optimize(p, specwise.Options{
		Algorithm:          *algorithm,
		ModelSamples:       *samples,
		VerifySamples:      *verify,
		MaxIterations:      *iters,
		Seed:               *seed,
		NoConstraints:      *noConstraints,
		LinearizeAtNominal: *nominal,
		QuadraticSpecs:     *quadratic,
		LHS:                *lhs,
		RefineThetaPasses:  *refineTheta,
		Log:                log,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "optimization failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Println()
	report.OptimizationTrace(os.Stdout, res)
}
