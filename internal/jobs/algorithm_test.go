package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestNormalizeRejectsUnhonoredOptions pins satellite behaviour: a
// request naming options its kind cannot honor is rejected at submit
// time instead of silently ignored.
func TestNormalizeRejectsUnhonoredOptions(t *testing.T) {
	cases := []struct {
		name    string
		req     Request
		wantErr string // empty means the request must normalize cleanly
	}{
		{"optimize default algorithm", Request{Circuit: "ota"}, ""},
		{"optimize feasguided", Request{Circuit: "ota", Options: RunOptions{Algorithm: "feasguided"}}, ""},
		{"optimize cem", Request{Circuit: "ota", Options: RunOptions{Algorithm: "cem"}}, ""},
		{"optimize algorithm case-folded", Request{Circuit: "ota", Options: RunOptions{Algorithm: " CEM "}}, ""},
		{"optimize unknown algorithm", Request{Circuit: "ota", Options: RunOptions{Algorithm: "gradient-descent"}},
			"unknown search algorithm"},
		{"verify plain", Request{Kind: KindVerify, Circuit: "ota",
			Options: RunOptions{VerifySamples: 30, Seed: Seed(1), VerifyWorkers: 2}}, ""},
		{"verify with algorithm", Request{Kind: KindVerify, Circuit: "ota",
			Options: RunOptions{Algorithm: "cem"}}, "cannot honor option(s) algorithm"},
		{"verify with optimizer knobs", Request{Kind: KindVerify, Circuit: "ota",
			Options: RunOptions{MaxIterations: 3, ModelSamples: 500}},
			"cannot honor option(s) modelSamples, maxIterations"},
		{"verify with ablations", Request{Kind: KindVerify, Circuit: "ota",
			Options: RunOptions{NoConstraints: true, LHS: true, SkipVerify: true}},
			"cannot honor"},
		{"verify with wcSeed", Request{Kind: KindVerify, Circuit: "ota",
			Options: RunOptions{WCSeed: Seed(7)}}, "wcSeed"},
		{"verify negative verifySamples", Request{Kind: KindVerify, Circuit: "ota",
			Options: RunOptions{VerifySamples: -1}}, "options.verifySamples must not be negative"},
		{"optimize negative modelSamples", Request{Circuit: "ota",
			Options: RunOptions{ModelSamples: -5}}, "options.modelSamples must not be negative"},
		{"optimize negative maxIterations", Request{Circuit: "ota",
			Options: RunOptions{MaxIterations: -1}}, "options.maxIterations must not be negative"},
		{"optimize negative refineThetaPasses", Request{Circuit: "ota",
			Options: RunOptions{RefineThetaPasses: -2}}, "options.refineThetaPasses must not be negative"},
		{"verify verifySamples at cap", Request{Kind: KindVerify, Circuit: "ota",
			Options: RunOptions{VerifySamples: 1_000_000}}, ""},
		{"verify huge verifySamples", Request{Kind: KindVerify, Circuit: "ota",
			Options: RunOptions{VerifySamples: 1 << 50}}, "options.verifySamples must be at most 1000000"},
		{"optimize modelSamples above cap", Request{Circuit: "ota",
			Options: RunOptions{ModelSamples: 1_000_001}}, "options.modelSamples must be at most 1000000"},
		{"optimize verifySamples above cap", Request{Circuit: "ota",
			Options: RunOptions{VerifySamples: 1_000_001}}, "options.verifySamples must be at most 1000000"},
		{"optimize maxIterations above cap", Request{Circuit: "ota",
			Options: RunOptions{MaxIterations: 1001}}, "options.maxIterations must be at most 1000"},
		{"optimize refineThetaPasses above cap", Request{Circuit: "ota",
			Options: RunOptions{RefineThetaPasses: 1001}}, "options.refineThetaPasses must be at most 1000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Normalize()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Normalize: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Normalize accepted a request that should fail with %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Normalize error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestRequestHashAlgorithmCompat pins the wire compatibility contract:
// requests that omit the algorithm field hash byte-identically to the
// encoding before the field existed, so journaled jobs and cached
// results from earlier releases stay reachable. The constants were
// captured from the pre-backend-split tree, except the last two, which
// were captured while options.speculate and options.specWorkers still
// configured a pipeline and while options.verifyWorkers and
// options.sweepWorkers still sized worker pools: the retired,
// decode-only fields must keep the hash of the requests that carry them.
func TestRequestHashAlgorithmCompat(t *testing.T) {
	on := true
	cases := []struct {
		req  Request
		want string
	}{
		{Request{Circuit: "ota", Options: RunOptions{ModelSamples: 1500, VerifySamples: 80, MaxIterations: 2, Seed: Seed(7)}},
			"405bca8b31a80b437a096e93308a77232357384afd9c120e028e910ee71c5f8c"},
		{Request{Kind: KindVerify, Circuit: "ota", Options: RunOptions{VerifySamples: 30, Seed: Seed(1)}},
			"0899a44435537add14b0bbc553418badff1e4632fe17b6fbdda6c95fcb38320e"},
		{Request{Circuit: "miller", Options: RunOptions{}},
			"0ecdfa4bbbe7b58576aa85e96004b351b01a0a9c38f054d22e1ea0be654aac50"},
		{Request{Circuit: "ota", Options: RunOptions{ModelSamples: 1500, VerifySamples: 80, MaxIterations: 2, Seed: Seed(7),
			Speculate: &on, SpecWorkers: 4}},
			"0264e04dea8e370e72e5ed90be714b049c052e994fd55a80d29cf61df93e0f33"},
		{Request{Circuit: "ota", Options: RunOptions{ModelSamples: 1500, VerifySamples: 80, MaxIterations: 2, Seed: Seed(7),
			VerifyWorkers: 2, SweepWorkers: 3}},
			"a7c504a2d2d6e2899216175469ac6b6641c22cb6bfc73d455190872a1ca295b9"},
	}
	for i, tc := range cases {
		if err := tc.req.Normalize(); err != nil {
			t.Fatalf("case %d: Normalize: %v", i, err)
		}
		got, err := tc.req.Hash()
		if err != nil {
			t.Fatalf("case %d: Hash: %v", i, err)
		}
		if got != tc.want {
			t.Errorf("case %d: hash drifted from the pre-algorithm encoding:\n got %s\nwant %s", i, got, tc.want)
		}
	}
	// An explicitly-named default algorithm is a different request on the
	// wire (it no longer omits the field), so it must hash differently —
	// the cache treats it as a distinct submission by design.
	named := Request{Circuit: "ota", Options: RunOptions{Algorithm: "feasguided",
		ModelSamples: 1500, VerifySamples: 80, MaxIterations: 2, Seed: Seed(7)}}
	if err := named.Normalize(); err != nil {
		t.Fatal(err)
	}
	h, err := named.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h == cases[0].want {
		t.Error("explicit algorithm name did not change the request hash")
	}
}

// The golden results of TestBackendEquivalenceOTA, one per backend, both
// captured through the job API. The feasguided golden predates the
// engine/backend split; the cem golden predates the backends' move into
// internal/core. Regenerate (only if a trajectory contract intentionally
// changes) with
//
//	SPECWISE_UPDATE_GOLDEN=1 go test ./internal/jobs/ -run TestBackendEquivalenceOTA
const (
	goldenPath    = "testdata/golden_ota_feasguided.json"
	goldenPathCEM = "testdata/golden_ota_cem.json"
)

// TestBackendEquivalenceOTA runs the OTA through the full job API under
// both backends, and each run must reproduce its golden byte for byte.
func TestBackendEquivalenceOTA(t *testing.T) {
	if testing.Short() {
		t.Skip("full OTA optimizations in -short mode")
	}
	opts := RunOptions{ModelSamples: 1500, VerifySamples: 80, MaxIterations: 2, Seed: Seed(7)}

	run := func(t *testing.T, algorithm string) *Result {
		t.Helper()
		m := New(Config{Workers: 1}) // default resolver: the circuits table
		defer m.Close()
		o := opts
		o.Algorithm = algorithm
		job, err := m.Submit(Request{Circuit: "ota", Options: o})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitState(t, job, 5*time.Minute); st != StateDone {
			t.Fatalf("job state %s, err %q", st, job.Err())
		}
		res, _ := job.Result()
		if res == nil || res.Optimization == nil {
			t.Fatal("done job has no optimization result")
		}
		if res.Optimization.Algorithm != algorithm {
			t.Fatalf("result algorithm = %q, want %s", res.Optimization.Algorithm, algorithm)
		}
		res.Optimization.StripVolatile()
		return res
	}

	compare := func(t *testing.T, path string, v any) {
		t.Helper()
		got, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if os.Getenv("SPECWISE_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(filepath.FromSlash(path), got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s", path)
			return
		}
		want, err := os.ReadFile(filepath.FromSlash(path))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("OTA result drifted from the golden %s\n got %d bytes\nwant %d bytes",
				path, len(got), len(want))
		}
	}

	t.Run("feasguided", func(t *testing.T) {
		opt := run(t, "feasguided").Optimization
		// The golden predates the algorithm field; clear it so the rest of
		// the result compares byte-for-byte.
		opt.Algorithm = ""
		compare(t, goldenPath, opt)
	})

	t.Run("cem", func(t *testing.T) {
		compare(t, goldenPathCEM, run(t, "cem").Optimization)
	})
}

// TestDefaultAlgorithmStamping: a manager configured with a default
// backend stamps it onto optimize requests that omit one (changing
// their hash namespace), while explicit choices and verify requests
// pass through untouched.
func TestDefaultAlgorithmStamping(t *testing.T) {
	m := testManager(t, Config{Workers: 1, DefaultAlgorithm: "cem"}, 0)

	job, err := m.Submit(Request{Circuit: "analytic", Options: quickOpts})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, job, time.Minute); st != StateDone {
		t.Fatalf("job state %s, err %q", st, job.Err())
	}
	res, _ := job.Result()
	if res.Optimization.Algorithm != "cem" {
		t.Errorf("stamped job algorithm = %q, want cem", res.Optimization.Algorithm)
	}

	explicit := quickOpts
	explicit.Algorithm = "feasguided"
	job2, err := m.Submit(Request{Circuit: "analytic", Options: explicit})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, job2, time.Minute); st != StateDone {
		t.Fatalf("explicit job state %s, err %q", st, job2.Err())
	}
	res2, _ := job2.Result()
	if res2.Optimization.Algorithm != "feasguided" {
		t.Errorf("explicit job algorithm = %q, want feasguided", res2.Optimization.Algorithm)
	}

	// Verify-kind requests have no algorithm; stamping must not make
	// them fail option validation.
	vjob, err := m.Submit(Request{Kind: KindVerify, Circuit: "analytic",
		Options: RunOptions{VerifySamples: 20, Seed: Seed(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, vjob, time.Minute); st != StateDone {
		t.Fatalf("verify job state %s, err %q", st, vjob.Err())
	}
}
