package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"specwise/internal/problem"
	"specwise/internal/testprob"
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

// FuzzSubmitBatch feeds arbitrary bytes through batch admission: a
// strict JSON decode of a POST /v1/batches body, then SubmitBatch on a
// remote-only manager with two queue slots per lane, twice, with one
// job completed in between, so the second round meets queued work and
// a result-cache entry. Nothing may panic. A refused batch leaves the
// tracked jobs and batches and the next job and batch IDs as they
// were; an accepted batch reports one member per request, and each
// member resolves with Get. Problem resolution is a stub (the analytic
// test problem, or an error for any other circuit name), so the target
// exercises admission rather than circuit construction. The seed
// corpus (testdata/fuzz/FuzzSubmitBatch) holds the shapes of the batch
// tests;
//
//	go test -run XXX -fuzz FuzzSubmitBatch -fuzztime 60s ./internal/jobs
//
// explores further.
func FuzzSubmitBatch(f *testing.F) {
	resolve := func(req *Request) (*problem.Problem, error) {
		if req.Circuit != "" && req.Circuit != "analytic" {
			return nil, fmt.Errorf("unknown circuit %q", req.Circuit)
		}
		return testprob.Analytic(), nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var body struct {
			Jobs []Request `json:"jobs"`
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil {
			return
		}
		m := New(Config{RemoteOnly: true, QueueSize: 2, Resolve: resolve})
		defer m.Close()
		for round := 0; round < 2; round++ {
			before := admissionLedger(m)
			b, err := m.SubmitBatch(body.Jobs)
			if err != nil {
				if after := admissionLedger(m); !reflect.DeepEqual(before, after) {
					t.Fatalf("refused batch (%v) changed the manager:\nbefore %+v\nafter  %+v", err, before, after)
				}
			} else {
				st, err := m.BatchStatus(b.ID())
				if err != nil {
					t.Fatalf("accepted batch %s has no status: %v", b.ID(), err)
				}
				if len(st.Members) != len(body.Jobs) {
					t.Fatalf("batch %s: %d members for %d requests", b.ID(), len(st.Members), len(body.Jobs))
				}
				for i, ms := range st.Members {
					if _, ok := m.Get(ms.ID); !ok {
						t.Fatalf("batch %s member %d (%q) does not resolve", b.ID(), i, ms.ID)
					}
				}
			}
			if lease, _ := m.Claim("w1"); lease != nil {
				if err := m.Complete(lease.JobID, lease.LeaseID, &Result{Kind: KindOptimize}); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// ledger is what a refused submission must leave untouched.
type ledger struct {
	Jobs, Batches []string // "id state" in listing order
	Seq, BatchSeq int
}

func admissionLedger(m *Manager) ledger {
	var l ledger
	for _, st := range m.Jobs() {
		l.Jobs = append(l.Jobs, st.ID+" "+string(st.State))
	}
	for _, st := range m.Batches() {
		l.Batches = append(l.Batches, st.ID+" "+string(st.State))
	}
	m.mu.Lock()
	l.Seq, l.BatchSeq = m.seq, m.batchSeq
	m.mu.Unlock()
	return l
}
