package jobs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRequestNormalize feeds arbitrary bytes through the service's
// request path: a strict JSON decode into Request (as the HTTP layer
// does), Hash and ProblemHash on the raw request, then Normalize. None
// may panic. A request Normalize accepts must normalize again without
// error and keep its Hash and ProblemHash: Normalize is idempotent, so a
// journaled request hashes the same after recovery. The seed corpus
// (testdata/fuzz/FuzzRequestNormalize) holds the request shapes of this
// package's tests; `go test` runs it as plain tests, and
//
//	go test -run XXX -fuzz FuzzRequestNormalize -fuzztime 60s ./internal/jobs
//
// explores further.
func FuzzRequestNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			return
		}
		r.Hash()
		r.ProblemHash()
		if err := r.Normalize(); err != nil {
			return
		}
		h1, err1 := r.Hash()
		p1, perr1 := r.ProblemHash()
		if err := r.Normalize(); err != nil {
			t.Fatalf("second Normalize rejected a normalized request: %v", err)
		}
		h2, err2 := r.Hash()
		p2, perr2 := r.ProblemHash()
		if h1 != h2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("Hash moved under a second Normalize: %q (%v) -> %q (%v)", h1, err1, h2, err2)
		}
		if p1 != p2 || (perr1 == nil) != (perr2 == nil) {
			t.Fatalf("ProblemHash moved under a second Normalize: %q (%v) -> %q (%v)", p1, perr1, p2, perr2)
		}
	})
}
