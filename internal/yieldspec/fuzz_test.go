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
