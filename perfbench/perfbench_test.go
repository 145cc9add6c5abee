package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"specwise"
	"specwise/internal/jobs"
)

// tinyWorkloads are the two workload kinds at a size that runs in
// seconds: OTA optimize jobs through the library and through the daemon.
func tinyWorkloads(t *testing.T) map[string]workload {
	return map[string]workload{
		"lib": &libWorkload{
			circuit:      specwise.OTA,
			opts:         specwise.Options{ModelSamples: 300, VerifySamples: 30, MaxIterations: 1},
			verifyN:      20,
			optPerSecond: 1,
			nVerify:      3,
			setups:       2,
		},
		"svc": &svcWorkload{
			opt:          jobs.RunOptions{ModelSamples: 300, VerifySamples: 30, MaxIterations: 1},
			verifyN:      20,
			optPerSecond: 1,
			verPerSecond: 1,
			setups:       2,
			dir:          t.TempDir(),
		},
	}
}

// Every end-to-end and per-layer metric is emitted with its unit, and
// every check passes.
func TestEveryMetricEmitted(t *testing.T) {
	for name, w := range tinyWorkloads(t) {
		for _, trace := range []bool{false, true} {
			ms, err := measure(context.Background(), w, 3, 2, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !ms.out.Correct || ms.out.Failed != 0 || ms.out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, trace, ms.out.Correct, ms.out.Attempted, ms.out.Failed, ms.failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(ms.out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(ms.out.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := ms.out.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, d.Name, v, d.Unit)
				}
			}
		}
	}
}

// The simulation counts, the final yields and the stage replay's
// per-stage counts repeat exactly across two runs with the same seed.
func TestCountsRepeat(t *testing.T) {
	for name, w := range tinyWorkloads(t) {
		var sims, yields []float64
		var stages []map[string]int64
		for i := 0; i < 2; i++ {
			ps, err := w.run(context.Background(), 5, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := endToEndMetrics(ps)
			sims = append(sims, m["sims_per_job"])
			yields = append(yields, m["final_yield_pct"])
			rp, err := w.replay(context.Background(), 5, 2)
			if err != nil {
				t.Fatal(err)
			}
			stages = append(stages, rp.sims)
		}
		if sims[0] != sims[1] || sims[0] == 0 {
			t.Errorf("%s: sims_per_job %v, want two equal nonzero values", name, sims)
		}
		if yields[0] != yields[1] {
			t.Errorf("%s: final_yield_pct %v, want equal", name, yields)
		}
		if !reflect.DeepEqual(stages[0], stages[1]) {
			t.Errorf("%s: replay stage sims %v then %v", name, stages[0], stages[1])
		}
	}
}

// The replay's per-stage simulation counts add up to the evaluation
// wrapper's total for the cycle, with no call outside a stage.
func TestReplaySumsToWrapperTotal(t *testing.T) {
	for name, w := range tinyWorkloads(t) {
		rp, err := w.replay(context.Background(), 9, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !rp.sumOK() || rp.total == 0 {
			t.Errorf("%s: stages %v, wrapper saw %d calls (%d unattributed)", name, rp.sims, rp.total, rp.unattributed)
		}
		if rp.sims["wcd.search"] == 0 || rp.sims["core.verify"] == 0 {
			t.Errorf("%s: stages %v: the worst-case search and the verification must simulate", name, rp.sims)
		}
	}
}

// Self time is a span's duration minus the union of its children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "eval", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "eval", Start: 30, End: 50},  // overlaps the first
		{ID: 4, Parent: 1, Name: "eval", Start: 90, End: 120}, // runs past the parent
	}
	got := selfTimes(spans)
	want := map[string]float64{"core": 50e-9, "spice": 80e-9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the command
// implements.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	var impl []string
	for n := range workloads(t.TempDir()) {
		impl = append(impl, n)
	}
	sort.Strings(wl)
	sort.Strings(impl)
	if !reflect.DeepEqual(wl, impl) {
		t.Errorf("BENCHMARK.json workloads %v, implemented %v", wl, impl)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit, Better string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, implemented %d", len(c.listed), len(c.defs))
			continue
		}
		for i, m := range c.listed {
			if d := c.defs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("BENCHMARK.json metric %d is %+v, implemented %+v", i, m, d)
			}
		}
	}
}

// A slow spell confined to one block leaves the block p90 where the
// other blocks put it; fewer than two blocks give the plain p90.
func TestBlockPercentile(t *testing.T) {
	var xs []float64
	for b := 0; b < 5; b++ {
		for i := 0; i < blockSize; i++ {
			x := 1 + float64(i)/blockSize
			if b == 2 {
				x *= 3
			}
			xs = append(xs, x)
		}
	}
	if got, want := blockPercentile(xs, blockSize, 0.9), percentile(xs[:blockSize], 0.9); got != want {
		t.Errorf("blockPercentile = %g, want %g", got, want)
	}
	if got, want := blockPercentile(xs[:blockSize+5], blockSize, 0.9), percentile(xs[:blockSize+5], 0.9); got != want {
		t.Errorf("one block: blockPercentile = %g, want plain p90 %g", got, want)
	}
}
