package yieldspec

import (
	"bytes"
	"testing"
)

// FuzzYieldspecParse feeds arbitrary bytes to the spec parser that reads
// the inline specs of service requests, with an empty base directory.
// It must return a problem or an error, never panic, and an accepted
// problem must pass its own validation. The seed corpus
// (testdata/fuzz/FuzzYieldspecParse) holds the specs of this package's
// tests; `go test` runs it as plain tests, and
//
//	go test -run XXX -fuzz FuzzYieldspecParse -fuzztime 60s ./internal/yieldspec
//
// explores further.
func FuzzYieldspecParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(bytes.NewReader(data), "")
		if err != nil {
			if p != nil {
				t.Fatalf("error %v came with a problem", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted spec fails validation: %v", err)
		}
	})
}

// FuzzYieldspecEval goes one step past parsing: a spec that parses is
// evaluated once at its initial design, nominal statistical point and
// nominal operating point, through Eval and (when present) Constraints.
// Neither may panic; an error is a fine answer. The seed corpus
// (testdata/fuzz/FuzzYieldspecEval) is FuzzYieldspecParse's plus
// ac-bounds-overflow, AC bounds whose ratio overflows float64, which
// once parsed and then panicked sizing the frequency grid. Among the
// shared seeds, supply-not-vsource (a resistor as supply) once parsed
// and then panicked measuring power, and drive-not-vsource once parsed
// and then read NaN for every measure; both are refused at Build now.
//
//	go test -run XXX -fuzz FuzzYieldspecEval -fuzztime 60s ./internal/yieldspec
func FuzzYieldspecEval(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(bytes.NewReader(data), "")
		if err != nil {
			return
		}
		d := p.InitialDesign()
		if _, err := p.Eval(d, make([]float64, p.NumStat()), p.NominalTheta()); err != nil {
			t.Logf("Eval: %v", err)
		}
		if p.Constraints != nil {
			if _, err := p.Constraints(d); err != nil {
				t.Logf("Constraints: %v", err)
			}
		}
	})
}
