package core

import (
	"context"
	"fmt"
	"strings"

	"specwise/internal/linmodel"
)

// DefaultAlgorithm is the backend an empty Options.Algorithm selects:
// the paper's feasibility-guided coordinate search.
const DefaultAlgorithm = "feasguided"

// SearchBackend is the strategy half of the optimizer. The engine owns
// everything a search has in common — problem instrumentation, the
// evaluation cache, the feasible start, worst-case analysis, model
// building, Monte-Carlo verification, progress plumbing and result
// assembly — while a backend owns the search loop itself: where to move
// the design next and when to stop. Backends are stateful per run.
//
// The engine finds and analyzes the starting point, records it as the
// initial iteration state, hands it to Init, then drives Step until it
// reports done. A backend records further iteration states through
// Engine.Record as it goes and must check ctx inside Step at whatever
// granularity it can cancel at. The determinism contract: given a fixed
// seed every random draw must come from an rng stream derived from
// Options.Seed, so a run is a pure function of (problem, options) —
// bit-identical across machines and worker pools.
type SearchBackend interface {
	// Init prepares the run from the analyzed starting point: its
	// recorded iteration state and the model-yield estimator built there.
	Init(ctx context.Context, e *Engine, start *Iteration, est *linmodel.Estimator) error
	// Step runs one search cycle. done reports that the search has
	// converged (or exhausted its budget); the engine stops stepping.
	Step(ctx context.Context, e *Engine) (done bool, err error)
	// Final returns the design the run settled on, valid once Step
	// reported done (or after the last successful Step when the run is
	// cancelled).
	Final() []float64
}

// Backends returns the backend names Options.Algorithm may select,
// sorted.
func Backends() []string { return []string{"cem", DefaultAlgorithm} }

// KnownBackend reports whether name selects a backend (the empty name
// selects the default).
func KnownBackend(name string) bool {
	_, err := newBackend(name)
	return err == nil
}

// newBackend instantiates the backend for an algorithm name; ""
// selects DefaultAlgorithm.
func newBackend(name string) (SearchBackend, error) {
	switch name {
	case "", DefaultAlgorithm:
		return &feasGuided{}, nil
	case "cem":
		return &cem{}, nil
	}
	return nil, fmt.Errorf("core: unknown search algorithm %q (registered: %s)",
		name, strings.Join(Backends(), ", "))
}
