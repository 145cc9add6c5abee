package problem

import (
	"errors"
	"sync"
	"testing"
)

func validProblem() *Problem {
	return &Problem{
		Name: "t",
		Specs: []Spec{
			{Name: "a", Kind: GE, Bound: 2},
			{Name: "b", Kind: LE, Bound: 5},
		},
		Design: []Param{
			{Name: "d0", Init: 1, Lo: 0, Hi: 2},
		},
		StatNames: []string{"s0"},
		Theta:     []OpRange{{Name: "t", Nominal: 0, Lo: -1, Hi: 1}},
		Eval: func(d, s, th []float64) ([]float64, error) {
			return []float64{d[0], d[0]}, nil
		},
		Constraints: func(d []float64) ([]float64, error) {
			return []float64{1 - d[0]}, nil
		},
	}
}

func TestSpecMarginAndSatisfied(t *testing.T) {
	ge := Spec{Kind: GE, Bound: 2}
	if ge.Margin(3) != 1 || ge.Margin(1) != -1 {
		t.Error("GE margin wrong")
	}
	if !ge.Satisfied(2) || ge.Satisfied(1.999) {
		t.Error("GE satisfied wrong")
	}
	le := Spec{Kind: LE, Bound: 5}
	if le.Margin(3) != 2 || le.Margin(7) != -2 {
		t.Error("LE margin wrong")
	}
	if !le.Satisfied(5) || le.Satisfied(5.001) {
		t.Error("LE satisfied wrong")
	}
}

func TestProblemAccessors(t *testing.T) {
	p := validProblem()
	if p.NumSpecs() != 2 || p.NumDesign() != 1 || p.NumStat() != 1 {
		t.Error("counts wrong")
	}
	if d := p.InitialDesign(); d[0] != 1 {
		t.Error("InitialDesign wrong")
	}
	if th := p.NominalTheta(); th[0] != 0 {
		t.Error("NominalTheta wrong")
	}
	d := []float64{-5}
	p.ClampDesign(d)
	if d[0] != 0 {
		t.Errorf("clamp low = %v", d[0])
	}
	d[0] = 99
	p.ClampDesign(d)
	if d[0] != 2 {
		t.Errorf("clamp high = %v", d[0])
	}
}

func TestValidate(t *testing.T) {
	if err := validProblem().Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	p := validProblem()
	p.Eval = nil
	if p.Validate() == nil {
		t.Error("nil Eval accepted")
	}
	p = validProblem()
	p.Specs = nil
	if p.Validate() == nil {
		t.Error("no specs accepted")
	}
	p = validProblem()
	p.Design[0].Lo = 3
	if p.Validate() == nil {
		t.Error("Lo > Hi accepted")
	}
	p = validProblem()
	p.Design[0].Init = 5
	if p.Validate() == nil {
		t.Error("init outside box accepted")
	}
	p = validProblem()
	p.Theta[0].Nominal = 9
	if p.Validate() == nil {
		t.Error("theta nominal outside range accepted")
	}
}

func TestCounterInstrument(t *testing.T) {
	p := validProblem()
	var c Counter
	q := c.Instrument(p)
	d1 := []float64{1}
	for i := 0; i < 3; i++ {
		if _, err := q.Eval(d1, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Constraints([]float64{0}); err != nil {
		t.Fatal(err)
	}
	if c.Evals() != 3 || c.ConstraintEvals() != 1 || c.Total() != 4 {
		t.Errorf("counts = %d/%d", c.Evals(), c.ConstraintEvals())
	}
	// The original problem stays uninstrumented.
	if _, err := p.Eval(d1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if c.Evals() != 3 {
		t.Error("original Eval leaked into counter")
	}
	c.Reset()
	if c.Total() != 0 {
		t.Error("Reset failed")
	}
}

func TestCounterConcurrentSafety(t *testing.T) {
	p := validProblem()
	var c Counter
	q := c.Instrument(p)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := []float64{1}
			for i := 0; i < 100; i++ {
				_, _ = q.Eval(d, nil, nil)
			}
		}()
	}
	wg.Wait()
	if c.Evals() != 800 {
		t.Errorf("evals = %d want 800", c.Evals())
	}
}

func TestInstrumentPreservesErrors(t *testing.T) {
	p := validProblem()
	sentinel := errors.New("boom")
	p.Eval = func(d, s, th []float64) ([]float64, error) { return nil, sentinel }
	var c Counter
	q := c.Instrument(p)
	if _, err := q.Eval(nil, nil, nil); !errors.Is(err, sentinel) {
		t.Error("error not propagated")
	}
	if c.Evals() != 1 {
		t.Error("failed eval not counted")
	}
}

func TestInstrumentNilConstraints(t *testing.T) {
	p := validProblem()
	p.Constraints = nil
	var c Counter
	q := c.Instrument(p)
	if q.Constraints != nil {
		t.Error("nil constraints must stay nil")
	}
}

// specProblem has two specs, a full Eval and a per-spec EvalSpec that
// tally their calls separately.
func specProblem(full, perSpec *int) *Problem {
	p := validProblem()
	p.StatNames = []string{"s0", "s1"}
	p.Eval = func(d, s, th []float64) ([]float64, error) {
		*full++
		return []float64{d[0] + s[0], d[0] - s[1]}, nil
	}
	p.EvalSpec = func(d, s, th []float64, i int) (float64, error) {
		*perSpec++
		if i == 0 {
			return d[0] + s[0], nil
		}
		return d[0] - s[1], nil
	}
	return p
}

// SpecValue evaluates in full where s has at most one nonzero entry (the
// points several specs share) and per spec everywhere else; without an
// EvalSpec it always falls back to Eval.
func TestSpecValueRouting(t *testing.T) {
	var full, perSpec int
	p := specProblem(&full, &perSpec)
	d, th := []float64{1}, []float64{0}
	for _, tc := range []struct {
		s                 []float64
		i                 int
		want              float64
		wantFull, wantPer int
	}{
		{[]float64{0, 0}, 1, 1, 1, 0},
		{[]float64{0.5, 0}, 0, 1.5, 2, 0},
		{[]float64{0, -0.5}, 1, 1.5, 3, 0},
		{[]float64{0.5, 0.25}, 0, 1.5, 3, 1},
		{[]float64{0.5, 0.25}, 1, 0.75, 3, 2},
	} {
		v, err := p.SpecValue(d, tc.s, th, tc.i)
		if err != nil {
			t.Fatal(err)
		}
		if v != tc.want || full != tc.wantFull || perSpec != tc.wantPer {
			t.Errorf("s=%v i=%d: value %v (want %v), full %d (want %d), per-spec %d (want %d)",
				tc.s, tc.i, v, tc.want, full, tc.wantFull, perSpec, tc.wantPer)
		}
	}

	p.EvalSpec = nil
	full, perSpec = 0, 0
	if v, err := p.SpecValue(d, []float64{0.5, 0.25}, th, 1); err != nil || v != 0.75 || full != 1 {
		t.Errorf("nil EvalSpec: value %v err %v full %d, want 0.75 from one Eval", v, err, full)
	}
}

// The counter counts a per-spec evaluation as one simulation, and leaves
// a nil EvalSpec nil.
func TestInstrumentCountsEvalSpec(t *testing.T) {
	var full, perSpec int
	var c Counter
	q := c.Instrument(specProblem(&full, &perSpec))
	for i := 0; i < 3; i++ {
		if _, err := q.EvalSpec([]float64{1}, []float64{1, 1}, nil, i%2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Eval([]float64{1}, []float64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if c.Evals() != 4 || perSpec != 3 || full != 1 {
		t.Errorf("evals = %d (per-spec %d, full %d), want 4 (3, 1)", c.Evals(), perSpec, full)
	}
	if q := c.Instrument(validProblem()); q.EvalSpec != nil {
		t.Error("Instrument invented an EvalSpec function")
	}
}
