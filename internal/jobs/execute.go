package jobs

import (
	"context"
	"fmt"

	"specwise/internal/core"
	"specwise/internal/evalcache"
	"specwise/internal/problem"
	"specwise/internal/report"

	// Register the built-in search backends: any process that executes
	// jobs — the daemon's local pool and the remote pull-workers alike —
	// must resolve every algorithm a request may name.
	_ "specwise/internal/search"
)

// ExecEnv carries pool-level execution hooks. Every field here is
// behaviour-preserving: a request produces a bit-identical result
// envelope whichever pool — the in-process goroutines or a remote
// pull-worker with entirely different settings — executes it (the
// wall-clock solver timings in the perf block aside).
type ExecEnv struct {
	// Progress, when non-nil, receives optimizer milestones. Remote
	// workers leave it nil — progress is not streamed back over the
	// pull protocol.
	Progress func(core.ProgressEvent)
	// EvalCache, when non-nil, is the shared evaluation cache view this
	// execution memoizes through — a problem-scoped handle on the
	// manager's (or remote worker's) process-wide shard, so sweep
	// members reuse each other's simulations. nil keeps the default
	// private cache. Behaviour-preserving like every other ExecEnv knob:
	// the cache keys on exact (d, s, θ) bit patterns, so results are
	// bit-identical with or without sharing.
	EvalCache *evalcache.View
}

// RecoverRun turns a panic in the deferring job run into *err, so a
// request that crashes the optimizer fails its own job instead of the
// process running it. Both job runners — the manager's local pool and
// the remote pull-worker — defer RecoverRun(&err) around Execute.
func RecoverRun(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("jobs: run panicked: %v", r)
	}
}

// Execute runs one resolved request end to end. It is the single
// execution path shared by the manager's local pool and the remote
// pull-workers, which is what makes the two interchangeable. The
// returned core.Result is non-nil only for optimize-kind requests (the
// manager folds its reuse counters into the service metrics; remote
// workers ignore it).
func Execute(ctx context.Context, p *problem.Problem, req *Request, env ExecEnv) (*Result, *core.Result, error) {
	switch req.Kind {
	case KindVerify:
		n := req.Options.VerifySamples
		if n == 0 {
			n = core.DefaultVerifySamples
		}
		// With a shared cache, the worst-case corner analysis at s = 0 is
		// keyed the way the optimizer's is, so verify jobs both profit
		// from and feed the sweep's working set. The Monte-Carlo samples
		// are fresh random points no other job repeats: they are counted
		// as misses but never stored, so a verify job leaves only its
		// corner entries behind.
		mc, err := core.VerifyDesign(ctx, p, p.InitialDesign(), n, req.Options.seed(), env.EvalCache)
		if err != nil {
			return nil, nil, err
		}
		return &Result{Kind: KindVerify, Verification: report.JSONVerification(p, mc)}, nil, nil

	default: // KindOptimize
		opts := req.Options.Core()
		opts.EvalCache = env.EvalCache
		opts.Progress = env.Progress
		opt, err := core.NewOptimizer(p, opts)
		if err != nil {
			return nil, nil, err
		}
		res, err := opt.RunContext(ctx)
		if err != nil {
			return nil, nil, err
		}
		return &Result{Kind: KindOptimize, Optimization: report.JSONResult(res)}, res, nil
	}
}
