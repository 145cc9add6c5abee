package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"specwise"
	"specwise/internal/coord"
	"specwise/internal/core"
	"specwise/internal/evalcache"
	"specwise/internal/feasopt"
	"specwise/internal/linmodel"
	"specwise/internal/problem"
	"specwise/internal/rng"
	"specwise/internal/wcd"
)

// Replay stages in the order one Fig.-6 cycle runs them: the feasible
// start and the analysis of core.Engine.Analyze, then the search step of
// the feasguided backend.
var replayStages = []string{
	"feasopt.start", "wcd.theta", "wcd.search", "linmodel.build",
	"linmodel.estimator", "core.verify", "feasopt.linearize",
	"coord.search", "feasopt.linesearch",
}

// replayResult holds each stage's wall time and the simulator calls
// (performance plus constraint evaluations) made while it ran.
type replayResult struct {
	seconds map[string]float64
	sims    map[string]int64
	// total counts every call that reached the simulator; unattributed
	// counts the calls made while no stage was open.
	total, unattributed int64
}

// sumOK reports whether the per-stage counts add up to the wrapper's
// total with nothing left unattributed.
func (r *replayResult) sumOK() bool {
	var sum int64
	for _, n := range r.sims {
		sum += n
	}
	return r.unattributed == 0 && sum == r.total
}

// stageCounter counts simulator calls per open stage.
type stageCounter struct {
	cur                 atomic.Int32 // index into replayStages, -1 when none is open
	per                 []atomic.Int64
	total, unattributed atomic.Int64
}

func (c *stageCounter) hit() {
	c.total.Add(1)
	if i := c.cur.Load(); i >= 0 {
		c.per[i].Add(1)
	} else {
		c.unattributed.Add(1)
	}
}

// wrap returns a copy of p whose evaluations are counted against the
// open stage.
func (c *stageCounter) wrap(p *problem.Problem) *problem.Problem {
	q := *p
	eval := p.Eval
	q.Eval = func(d, s, theta []float64) ([]float64, error) {
		c.hit()
		return eval(d, s, theta)
	}
	if p.Constraints != nil {
		cons := p.Constraints
		q.Constraints = func(d []float64) ([]float64, error) {
			c.hit()
			return cons(d)
		}
	}
	return &q
}

// stageReplay drives one Fig.-6 cycle through the stage functions at the
// problem's initial design with the given optimizer options, timing each
// stage and attributing the simulator calls it causes. As in the engine,
// an evaluation cache sits above the counter, so a stage is charged only
// for points no earlier stage simulated.
func stageReplay(ctx context.Context, raw *specwise.Problem, opts specwise.Options) (*replayResult, error) {
	c := &stageCounter{per: make([]atomic.Int64, len(replayStages))}
	c.cur.Store(-1)
	p := evalcache.New(0).Wrap(c.wrap(raw))
	res := &replayResult{seconds: map[string]float64{}, sims: map[string]int64{}}
	stage := func(i int, f func() error) error {
		c.cur.Store(int32(i))
		start := time.Now()
		err := f()
		res.seconds[replayStages[i]] = time.Since(start).Seconds()
		c.cur.Store(-1)
		res.sims[replayStages[i]] = c.per[i].Load()
		if err != nil {
			return fmt.Errorf("replay %s: %w", replayStages[i], err)
		}
		return nil
	}

	d := p.InitialDesign()
	zeroS := make([]float64, p.NumStat())
	var (
		theta  *wcd.ThetaResult
		wcs    = make([]*wcd.WorstCase, p.NumSpecs())
		models []*linmodel.SpecModel
		est    *linmodel.Estimator
		lc     *coord.LinearConstraints
		sr     *coord.Result
	)
	steps := []func() error{
		func() error {
			if p.Constraints == nil {
				return nil
			}
			// A failed search still returns its best effort, as in the backend.
			if df, _ := feasopt.FeasibleStart(p, d, 0); df != nil {
				d = df
			}
			return nil
		},
		func() (err error) {
			if theta, err = wcd.WorstCaseTheta(p, d, zeroS); err != nil {
				return err
			}
			return wcd.RefineTheta(p, d, zeroS, theta, opts.RefineThetaPasses)
		},
		func() error {
			errs := make([]error, p.NumSpecs())
			var wg sync.WaitGroup
			for i := range p.Specs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					th := theta.PerSpec[i]
					margin := func(s []float64) (float64, error) {
						vals, err := p.Eval(d, s, th)
						if err != nil {
							return 0, err
						}
						return p.Specs[i].Margin(vals[i]), nil
					}
					wo := opts.WC
					base := opts.Seed
					if wo.Seed != 0 {
						base = wo.Seed
					}
					wo.Seed = base + uint64(i)*1000003
					wcs[i], errs[i] = wcd.FindWorstCase(margin, p.NumStat(), wo)
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		},
		func() (err error) {
			models, err = linmodel.Build(p, d, wcs, theta.PerSpec, linmodel.BuildOptions{MirrorSpecs: true})
			return err
		},
		func() error {
			est = linmodel.NewEstimator(models, p.NumStat(), opts.ModelSamples, rng.New(opts.Seed))
			est.Count(d)
			return nil
		},
		func() error {
			_, err := core.VerifyMCContext(ctx, p, d, theta.PerSpec, opts.VerifySamples, opts.Seed^0xabcdef, 0)
			return err
		},
		func() (err error) {
			if p.Constraints != nil {
				lc, err = feasopt.Linearize(p, d, 0)
			}
			return err
		},
		func() error {
			box := coord.Box{Lo: make([]float64, p.NumDesign()), Hi: make([]float64, p.NumDesign()), Log: make([]bool, p.NumDesign())}
			for k, prm := range p.Design {
				box.Lo[k], box.Hi[k], box.Log[k] = prm.Lo, prm.Hi, prm.LogScale
			}
			sr = coord.Search(box, est, lc, d, opts.Coord)
			return nil
		},
		func() error {
			if !sr.Moved || p.Constraints == nil {
				return nil
			}
			_, _, err := feasopt.LineSearch(p, d, sr.D, 0)
			return err
		},
	}
	for i, f := range steps {
		if err := stage(i, f); err != nil {
			return nil, err
		}
	}
	res.total = c.total.Load()
	res.unattributed = c.unattributed.Load()
	return res, nil
}
