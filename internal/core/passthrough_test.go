package core_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"specwise/internal/circuits"
	"specwise/internal/core"
	"specwise/internal/evalcache"
	"specwise/internal/problem"
	"specwise/internal/rng"
)

// pointKey packs the exact bits of an evaluation point.
func pointKey(parts ...[]float64) string {
	var b strings.Builder
	for _, v := range parts {
		b.WriteByte('|')
		for _, x := range v {
			bits := math.Float64bits(x)
			for k := 0; k < 8; k++ {
				b.WriteByte(byte(bits >> (8 * k)))
			}
		}
	}
	return b.String()
}

// TestMCSamplesBypassCache runs the OTA optimization with its private
// evaluation cache and checks that the Monte-Carlo verification samples
// pass through it: every full evaluation the run made is still answered
// by the cache except the MC samples, which none is. The samples still
// count as misses, so the run's effort and cache counters and its final
// design are the values recorded before the samples stopped being
// stored (OTA, 500 model / 60 verify samples, 2 iterations, seed 7).
func TestMCSamplesBypassCache(t *testing.T) {
	opts := core.Options{ModelSamples: 500, VerifySamples: 60, MaxIterations: 2, Seed: 7}

	// Record every evaluation point that reaches the simulator, full or
	// subset, with the subset's mask (nil for a full evaluation).
	type point struct {
		d, s, theta []float64
		want        []bool
	}
	p := circuits.OTAProblem()
	var mu sync.Mutex
	evaluated := map[string]point{}
	record := func(d, s, theta []float64, want []bool) {
		mu.Lock()
		evaluated[pointKey(d, s, theta)+fmt.Sprint(want)] = point{
			append([]float64(nil), d...), append([]float64(nil), s...), append([]float64(nil), theta...),
			append([]bool(nil), want...),
		}
		mu.Unlock()
	}
	inner, innerS := p.Eval, p.EvalSubset
	p.Eval = func(d, s, theta []float64) ([]float64, error) {
		record(d, s, theta, nil)
		return inner(d, s, theta)
	}
	p.EvalSubset = func(d, s, theta []float64, want []bool) ([]float64, error) {
		record(d, s, theta, want)
		return innerS(d, s, theta, want)
	}

	cache := evalcache.New(0)
	opts.EvalCache = cache
	res, err := core.Optimize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The MC sample streams every analysis may have drawn: the initial
	// one at the run seed, attempt a at seed + a + 1 (feasguided).
	isSample := map[string]bool{}
	for a := 0; a <= opts.MaxIterations+5; a++ {
		r := rng.New((opts.Seed + uint64(a)) ^ 0xabcdef)
		for j := 0; j < opts.VerifySamples; j++ {
			isSample[pointKey(r.NormVector(make([]float64, p.NumStat())))] = true
		}
	}

	// Probe every evaluated point through the same cache, with the same
	// mask: a point it holds is answered without reaching probe's
	// evaluators.
	var probed int
	probe := cache.Wrap(&problem.Problem{
		Specs:     p.Specs,
		Design:    p.Design,
		StatNames: p.StatNames,
		Eval: func(d, s, theta []float64) ([]float64, error) {
			probed++
			return make([]float64, len(p.Specs)), nil
		},
		EvalSubset: func(d, s, theta []float64, want []bool) ([]float64, error) {
			probed++
			return make([]float64, len(p.Specs)), nil
		},
	})
	var samples, others int
	for _, pt := range evaluated {
		before := probed
		var err error
		if pt.want == nil {
			_, err = probe.Eval(pt.d, pt.s, pt.theta)
		} else {
			_, err = probe.EvalSubset(pt.d, pt.s, pt.theta, pt.want)
		}
		if err != nil {
			t.Fatal(err)
		}
		stored := probed == before
		if isSample[pointKey(pt.s)] {
			samples++
			if stored {
				t.Fatalf("the cache holds an MC sample point (s = %v)", pt.s)
			}
		} else {
			others++
			if !stored {
				t.Fatalf("the cache dropped a non-sample point (s = %v)", pt.s)
			}
		}
	}
	if samples == 0 || others == 0 {
		t.Fatalf("probed %d sample and %d other points; the run must make both", samples, others)
	}

	st := res.EvalCache
	got := [...]int64{int64(res.Simulations), int64(res.ConstraintSims), st.Misses, st.Hits + st.Deduped, st.CrossHits, st.ConstraintMisses, st.ConstraintHits, st.Evictions, st.Overflow}
	want := [...]int64{7238, 9, 7238, 296, 0, 9, 5, 0, 0}
	if got != want {
		t.Errorf("simulations, constraint sims, misses, hits+deduped, cross hits, constraint misses/hits, evictions, overflow = %v, want %v", got, want)
	}
	wantBits := []uint64{0x405cc8a1b56392db, 0x4013333333333334, 0x402ea9a27ab55d25}
	gotBits := make([]uint64, len(res.FinalDesign))
	for k, x := range res.FinalDesign {
		gotBits[k] = math.Float64bits(x)
	}
	if !slices.Equal(gotBits, wantBits) {
		t.Errorf("final design bits = %#x, want %#x", gotBits, wantBits)
	}
}
