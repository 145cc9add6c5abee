// Command benchreport parses `go test -bench` output on stdin and writes
// a machine-readable JSON summary, one record per benchmark, to the file
// named by -o (default BENCH_core.json). It understands the standard
// testing-package metrics (ns/op, B/op, allocs/op) and the custom
// per-benchmark metrics this repo reports (simulations, factorizations,
// final-yield-%).
// With -compare it also gates the run against a reference: see
// compareRuns.
//
// Usage:
//
//	go test -run xxx -bench 'Table[16]' -benchtime 1x -benchmem . | benchreport -o BENCH_core.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Entry is one benchmark's parsed result.
type Entry struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"` // unit → value (e.g. "ns/op")
}

// Report is the full output document.
type Report struct {
	// Note is free-form context (baseline commit, machine, flags).
	Note string `json:"note,omitempty"`
	// Baseline holds reference numbers parsed from -baseline, so a
	// committed report carries its before/after comparison.
	Baseline   []Entry `json:"baseline,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH_core.json", "output JSON file")
	note := flag.String("note", "", "free-form context recorded in the report")
	baseline := flag.String("baseline", "", "raw `go test -bench` output file parsed into the baseline section")
	compare := flag.String("compare", "", "reference file (raw bench output or a benchreport JSON); exit nonzero when any shared benchmark regresses in ns/op or allocs/op beyond -threshold, or its simulation count changes")
	threshold := flag.Float64("threshold", 0.20, "allowed fractional ns/op and allocs/op regression for -compare (0.20 = 20%)")
	flag.Parse()

	rep := Report{Note: *note}
	if *baseline != "" {
		entries, err := parseFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		rep.Baseline = entries
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the raw output through for the terminal
		if e, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, e)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchreport: no benchmark lines on stdin")
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchreport: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)

	if *compare != "" {
		ref, err := parseReference(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		if regressed := compareRuns(os.Stderr, rep.Benchmarks, ref, *threshold); regressed {
			os.Exit(2)
		}
	}
}

// parseReference loads comparison entries from either a benchreport JSON
// document (its benchmarks section) or raw `go test -bench` output,
// sniffing the format from the first non-space byte.
func parseReference(path string) ([]Entry, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(buf))
	if strings.HasPrefix(trimmed, "{") {
		var rep Report
		if err := json.Unmarshal(buf, &rep); err != nil {
			return nil, fmt.Errorf("parsing %s as benchreport JSON: %w", path, err)
		}
		if len(rep.Benchmarks) == 0 {
			return nil, fmt.Errorf("no benchmarks in %s", path)
		}
		return rep.Benchmarks, nil
	}
	return parseFile(path)
}

// benchKey normalizes a benchmark name for cross-machine comparison by
// dropping the -N GOMAXPROCS suffix the testing package appends.
func benchKey(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// compareRuns checks every current benchmark that also appears in ref.
// Wall time (ns/op) and allocations (allocs/op) regress when they rise
// by more than the threshold fraction; the simulation and factorization
// counts do not depend on the machine, so any change to them is a
// regression. A metric
// missing from either side is not compared. It reports true when any
// benchmark regressed, none could be compared, or the reference holds
// two rows for one benchmark.
func compareRuns(w io.Writer, cur, ref []Entry, threshold float64) bool {
	refBy := make(map[string]map[string]float64, len(ref))
	for _, e := range ref {
		k := benchKey(e.Name)
		if _, dup := refBy[k]; dup {
			// Two reference rows for one benchmark (say, -2 and -8
			// GOMAXPROCS suffixes): which one gates would be an accident
			// of row order, so the reference itself is rejected.
			fmt.Fprintf(w, "benchreport: reference has more than one row for %s\n", k)
			return true
		}
		refBy[k] = e.Metrics
	}
	regressed := false
	compared := 0
	for _, e := range cur {
		base, ok := refBy[benchKey(e.Name)]
		if !ok {
			continue
		}
		for _, m := range []struct {
			unit  string
			exact bool
		}{{"ns/op", false}, {"allocs/op", false}, {"simulations", true}, {"factorizations", true}} {
			v, okCur := e.Metrics[m.unit]
			b, okRef := base[m.unit]
			if !okCur || !okRef || (!m.exact && b <= 0) {
				continue
			}
			compared++
			status := "ok"
			if (m.exact && v != b) || (!m.exact && v/b-1 > threshold) {
				status = "REGRESSION"
				regressed = true
			}
			change := "  exact"
			if !m.exact {
				change = fmt.Sprintf("%+6.1f%%", (v/b-1)*100)
			}
			fmt.Fprintf(w, "benchreport: compare %-40s %12.0f -> %12.0f %-11s %s  %s\n",
				benchKey(e.Name), b, v, m.unit, change, status)
		}
	}
	if compared == 0 {
		fmt.Fprintln(w, "benchreport: compare found no overlapping benchmark metrics")
		return true
	}
	return regressed
}

// parseFile extracts every benchmark line from a raw bench-output file.
func parseFile(path string) ([]Entry, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	for _, line := range strings.Split(string(buf), "\n") {
		if e, ok := parseLine(line); ok {
			entries = append(entries, e)
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no benchmark lines in %s", path)
	}
	return entries, nil
}

// parseLine decodes one `Benchmark...  N  <value> <unit> ...` line. The
// testing package emits value/unit pairs after the run count; custom
// ReportMetric units keep the same shape.
func parseLine(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Entry{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Name: fields[0], Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Entry{}, false
		}
		e.Metrics[fields[i+1]] = v
	}
	return e, len(e.Metrics) > 0
}
