// Command perfbench is the repository's benchmark. It runs one named
// workload over a fixed job list derived from --seed, checks every
// output, and prints the metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload table1-fc --seed 1 --seconds 12 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing wrapped;
// --trace 1 reports the per-layer metrics from a traced run of the same
// job list, a stage replay and the tracing overhead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"

	"specwise"
	"specwise/internal/jobs"
	"specwise/internal/paper"
)

// workload is one named job list the benchmark can run.
type workload interface {
	// run sets up and runs the job list once, traced when tr is non-nil.
	run(ctx context.Context, seed uint64, seconds int, tr *tracer) (*pass, error)
	// replay drives one Fig.-6 cycle of the list's first optimize job
	// through the stage functions.
	replay(ctx context.Context, seed uint64, seconds int) (*replayResult, error)
}

// workloads are the named workloads; dir holds their scratch files.
// The list sizes assume a 2-core machine: about --seconds of jobs each.
func workloads(dir string) map[string]workload {
	return map[string]workload{
		// Paper Table 1: folded cascode, FD-gradient and AC-sweep bound.
		"table1-fc": &libWorkload{
			circuit:      specwise.FoldedCascode,
			opts:         specwise.Options{ModelSamples: 3000, VerifySamples: 150, MaxIterations: 3},
			verifyN:      150,
			optPerSecond: 1,
			nVerify:      100,
			setups:       3,
			paper:        &paperCheck{seed: paper.Seed, sims: 19556, csims: 37, yield0: 0, yield: 0.92},
		},
		// Paper Table 6: Miller opamp at paper scale, coordinate-search bound.
		"table6-miller": &libWorkload{
			circuit:      specwise.Miller,
			opts:         specwise.Options{ModelSamples: 10000, VerifySamples: 300, MaxIterations: 4},
			verifyN:      300,
			optPerSecond: 0.4,
			nVerify:      100,
			setups:       3,
			paper:        &paperCheck{seed: paper.Seed, sims: 10549, csims: 30, yield0: 0.34, yield: 1},
		},
		// The service path: short jobs on both lanes, shared cache, WAL.
		"svc-sweep": &svcWorkload{
			opt:          jobs.RunOptions{ModelSamples: 1000, VerifySamples: 100, MaxIterations: 2},
			verifyN:      200,
			optPerSecond: 2.5,
			verPerSecond: 12,
			setups:       3,
			dir:          filepath.Join(dir, "tmp"),
		},
	}
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measurement is everything one invocation measured.
type measurement struct {
	out      output
	failures []string
	verifies int    // verify jobs behind verify_p90_s
	spans    []span // traced runs only
	replay   *replayResult
}

// measure runs a workload untraced (trace false) or untraced then traced
// (trace true) and reduces the passes to the reported metrics.
func measure(ctx context.Context, w workload, seed uint64, seconds int, trace bool) (*measurement, error) {
	plain, err := w.run(ctx, seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	ms := &measurement{}
	ms.tally(plain)
	values := endToEndMetrics(plain)
	defs := endToEnd
	if trace {
		traced, err := w.run(ctx, seed, seconds, newTracer())
		if err != nil {
			return nil, err
		}
		ms.tally(traced)
		rp, err := w.replay(ctx, seed, seconds)
		if err != nil {
			return nil, err
		}
		if !rp.sumOK() {
			ms.failures = append(ms.failures, fmt.Sprintf("stage replay: per-stage sims %v do not add up to the %d calls the wrapper saw (%d unattributed)",
				rp.sims, rp.total, rp.unattributed))
		}
		overhead := endToEndMetrics(traced)["job_p50_s"] - values["job_p50_s"]
		values = layerMetrics(traced, rp, overhead)
		defs = perLayer
		ms.spans = traced.spans
	}
	ms.out.Correct = len(ms.failures) == 0
	ms.out.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			ms.out.Correct = false
			ms.failures = append(ms.failures, fmt.Sprintf("metric %s not measured", d.Name))
			v = 0
		}
		ms.out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return ms, nil
}

// tally counts a pass's operations and failures.
func (ms *measurement) tally(p *pass) {
	for _, o := range p.ops {
		ms.out.Attempted++
		if o.kind == kindVerify {
			ms.verifies++
		}
		if !o.ok {
			ms.out.Failed++
			ms.failures = append(ms.failures, o.err)
		}
	}
}

// outDir holds the scratch files and spans, relative to the repository
// root the command runs from; run.sh builds into the same directory.
const outDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed; the job list is derived from it")
	seconds := fs.Int("seconds", 12, "sizes the fixed job list (about this many seconds of jobs)")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	all := workloads(outDir)
	w, ok := all[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(all))
		for n := range all {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds >= 1, --trace 0|1\n", names)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sig := signature(*name, *seed, *seconds, *trace)
	sig["host_before"] = hostSnapshot()
	ms, err := measure(ctx, w, *seed, *seconds, *trace == 1)
	sig["host_after"] = hostSnapshot()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	sig["verify_jobs"] = ms.verifies
	sig["failures"] = ms.failures
	if ms.spans != nil {
		path := filepath.Join(outDir, "traces", *name+".jsonl")
		if err := writeSpans(path, ms.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		sig["spans_file"] = path
	}
	if err := printJSON(stdout, map[string]any{"info": sig}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printJSON(stdout, ms.out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !ms.out.Correct {
		for _, f := range ms.failures {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
		}
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
