package core

import (
	"context"

	"specwise/internal/coord"
	"specwise/internal/feasopt"
	"specwise/internal/linmodel"
)

// feasGuided is the default search backend: the paper's
// feasibility-guided coordinate search (Fig. 6). Each step linearizes
// the feasibility region at the current point (Eq. 15), maximizes the
// sampled model-yield estimate by coordinate search inside the
// linearized region (Eqs. 17–20), pulls the optimum back into the true
// region with a simulation-based line search (Eq. 23), re-analyzes, and
// accepts or rejects on verified yield — shrinking the trust region on
// rejection. The state is the current design, its analysis, and the
// trust-region/rejection bookkeeping of the accept/reject loop.
type feasGuided struct {
	d          []float64
	cur        *Iteration
	est        *linmodel.Estimator
	coordOpts  coord.Options
	accepted   int
	attempt    int
	rejections int
}

// score ranks iteration states: verified yield when available,
// model-estimated yield otherwise.
func score(skipVerify bool, it *Iteration) float64 {
	if skipVerify {
		return it.ModelYield
	}
	return it.MCYield
}

// Init starts the search from the engine's analyzed starting point.
func (b *feasGuided) Init(_ context.Context, e *Engine, start *Iteration, est *linmodel.Estimator) error {
	b.coordOpts = e.Options().Coord
	b.coordOpts.Defaults() // the trust bands halve from their effective values
	b.d = append([]float64(nil), start.Design...)
	b.cur, b.est = start, est
	return nil
}

// Step runs one linearize → coordinate-search → line-search → analyze
// cycle. The loop runs "until no further improvement of the yield": a
// step that loses yield is rejected; the design stays put, the trust
// region shrinks (the models were over-trusted) and the search reuses
// the current models.
func (b *feasGuided) Step(ctx context.Context, e *Engine) (bool, error) {
	opts := e.Options()
	if b.accepted >= opts.MaxIterations || b.attempt >= opts.MaxIterations+4 {
		return true, nil
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	attempt := b.attempt
	b.attempt++

	p := e.Problem()
	// Linearize the feasibility region at the current point (Eq. 15).
	var lc *coord.LinearConstraints
	if p.Constraints != nil {
		var err error
		lc, err = feasopt.Linearize(p, b.d, 0)
		if err != nil {
			return false, err
		}
	}

	// Maximize the sampled yield estimate by coordinate search.
	sr := coord.Search(e.DesignBox(), b.est, lc, b.d, b.coordOpts)
	e.Logf("attempt %d: coordinate search yield %.4f after %d passes", attempt, sr.Yield, sr.Passes)
	if !sr.Moved {
		e.Logf("attempt %d: no improving move found; stopping", attempt)
		return true, nil
	}

	// Pull the optimum back into the true feasibility region (Eq. 23).
	var dNew []float64
	if p.Constraints != nil {
		gamma, dn, err := feasopt.LineSearch(p, b.d, sr.D, 0)
		if err != nil {
			return false, err
		}
		e.Logf("attempt %d: line search gamma %.3f", attempt, gamma)
		dNew = dn
	} else {
		dNew = p.ClampDesign(sr.D)
	}

	next, estNew, err := e.Analyze(ctx, dNew, opts.Seed+uint64(attempt)+1)
	if err != nil {
		return false, err
	}
	e.Logf("attempt %d: model yield %.4f, MC yield %.4f", attempt, next.ModelYield, next.MCYield)

	if score(opts.SkipVerify, next) < score(opts.SkipVerify, b.cur)-0.02 {
		newTrust := b.coordOpts.TrustFactor / 2
		b.rejections++
		e.Logf("attempt %d: yield regressed (%.4f < %.4f); trust -> %.2f",
			attempt, score(opts.SkipVerify, next), score(opts.SkipVerify, b.cur), newTrust)
		e.Emit("rejected", b.accepted, attempt+1, next)
		if newTrust < 1.2 || b.rejections > 3 {
			return true, nil
		}
		b.coordOpts.TrustFactor = newTrust
		b.coordOpts.TrustFrac /= 2
		return false, nil
	}
	b.d = dNew
	b.cur, b.est = next, estNew
	e.Record(b.cur)
	b.accepted++
	e.Emit("accepted", b.accepted, attempt+1, b.cur)
	return false, nil
}

// Final returns the last accepted design.
func (b *feasGuided) Final() []float64 { return b.d }
