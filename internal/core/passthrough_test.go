package core_test

import (
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

	// The feasibility-guided backend the run below uses.
	_ "specwise/internal/search"
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

	// Record every full evaluation point that reaches the simulator.
	p := circuits.OTAProblem()
	var mu sync.Mutex
	evaluated := map[string][3][]float64{}
	inner := p.Eval
	p.Eval = func(d, s, theta []float64) ([]float64, error) {
		mu.Lock()
		evaluated[pointKey(d, s, theta)] = [3][]float64{
			append([]float64(nil), d...), append([]float64(nil), s...), append([]float64(nil), theta...),
		}
		mu.Unlock()
		return inner(d, s, theta)
	}

	cache := evalcache.New(0)
	opts.EvalCache = cache
	res, err := core.NewAndRun(p, opts)
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

	// Probe every evaluated point through the same cache: a point it
	// holds is answered without reaching probe's Eval.
	var probed int
	probe := cache.Wrap(&problem.Problem{
		Specs:     p.Specs,
		Design:    p.Design,
		StatNames: p.StatNames,
		Eval: func(d, s, theta []float64) ([]float64, error) {
			probed++
			return make([]float64, len(p.Specs)), nil
		},
	})
	var samples, others int
	for _, pt := range evaluated {
		before := probed
		if _, err := probe.Eval(pt[0], pt[1], pt[2]); err != nil {
			t.Fatal(err)
		}
		stored := probed == before
		if isSample[pointKey(pt[1])] {
			samples++
			if stored {
				t.Fatalf("the cache holds an MC sample point (s = %v)", pt[1])
			}
		} else {
			others++
			if !stored {
				t.Fatalf("the cache dropped a non-sample point (s = %v)", pt[1])
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
