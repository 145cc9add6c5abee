// Package spice implements the circuit-simulation substrate used in place
// of the paper's industrial TITAN simulator: modified nodal analysis (MNA)
// with a damped Newton–Raphson DC solver (plus gmin and source stepping
// homotopies) and a complex-valued small-signal AC analysis. Devices cover
// what the two benchmark opamps need: resistors, capacitors, independent
// sources, voltage-controlled voltage sources, and a C1-continuous level-1
// MOSFET model with channel-length modulation and mismatch hooks.
package spice

import (
	"fmt"

	"specwise/internal/linalg"
)

// Ground is the reserved node name for the reference node.
const Ground = "0"

// groundIndex marks the ground node in device terminal lists.
const groundIndex = -1

// Circuit is a flat netlist plus the MNA variable layout. A circuit
// carries solver scratch buffers reused across Newton iterations, AC
// sweep points and analyses, so a single Circuit must not run analyses
// from multiple goroutines concurrently. The evaluation layer keeps a
// pool of circuits per problem: a call takes one, writes its
// (design, statistical, operating) values into the devices, calls
// ResetSolvers and hands it back after its analyses, so no two
// goroutines hold the same circuit at once.
type Circuit struct {
	nodeIndex  map[string]int
	nodeNames  []string
	devices    []Device
	branchDevs []branchDevice

	// Opts selects per-circuit analysis configuration, notably the
	// linear-solver backend. Set it before the first analysis; changing
	// the backend afterwards takes effect when the system order changes.
	Opts Options

	// SolverStats, when non-nil, receives linear-solver effort counters
	// flushed after every analysis. It may be shared across circuits.
	SolverStats *SolverStats

	scratch solverScratch
}

// solverScratch holds reusable per-circuit solver storage. Lazily sized
// to the MNA system order; re-allocated if devices are added between
// analyses. The prev fields snapshot the backend's cumulative counters
// at the last stats flush.
type solverScratch struct {
	n      int
	solver linalg.Solver
	res    linalg.Vector
	dx     linalg.Vector
	prev   linalg.SolverStats
	// lastFactorErr records the most recent factorization failure inside
	// a Newton attempt, for diagnostics when the whole solve fails.
	lastFactorErr error

	acN      int
	acSolver linalg.ComplexSolver
	acB      []complex128
	acPrev   linalg.SolverStats
	// acX is the reusable solution buffer of the per-point sweep and
	// ACNode; affBase/affSlope hold the affine value snapshots ACSweep
	// captures at ω=0 and ω=1.
	acX      []complex128
	affBase  []complex128
	affSlope []complex128
	// grid is the last sweep's frequency grid.
	grid freqGrid
	// sweepWS is the block sweep's numeric workspace, kept across sweeps
	// and rebound to the current symbolic factorization by each sweep.
	sweepWS *linalg.SparseComplexWorkspace
}

// freqGrid is a sweep's logarithmic frequency grid, keyed by its
// parameters.
type freqGrid struct {
	fStart, fStop float64
	perDecade     int
	freq, omega   []float64 // Hz and rad/s
}

// ResetSolvers returns the circuit's scratch solvers to the state of
// freshly built ones while keeping every buffer (see
// linalg.SparseSolver.Restart): no factorization choice of an earlier
// analysis — in particular a private symbolic factorization left by a
// repivot fallback — carries over into the next one. A circuit reused
// for a new parameter set calls it before its first analysis, so its
// results and solver counters are those of a newly built circuit. The
// dense backends keep no state between factorizations.
func (c *Circuit) ResetSolvers() {
	type restarter interface{ Restart() }
	if r, ok := c.scratch.solver.(restarter); ok {
		r.Restart()
	}
	if r, ok := c.scratch.acSolver.(restarter); ok {
		r.Restart()
	}
}

// dcScratch returns the DC Newton workspace for an order-n system.
func (c *Circuit) dcScratch(n int) *solverScratch {
	s := &c.scratch
	if s.n != n || s.solver == nil {
		s.n = n
		if c.solverKind() == SolverDense {
			s.solver = linalg.NewDenseSolver(n)
		} else {
			sp := linalg.NewSparseSolver(n)
			if c.Opts.SymCache != nil {
				sp.SetSymbolicCache(c.Opts.SymCache)
			}
			s.solver = sp
		}
		s.res = linalg.NewVector(n)
		s.dx = linalg.NewVector(n)
		s.prev = linalg.SolverStats{}
	}
	return s
}

// acScratch returns the AC workspace for an order-n system.
func (c *Circuit) acScratch(n int) *solverScratch {
	s := &c.scratch
	if s.acN != n || s.acSolver == nil {
		s.acN = n
		if c.solverKind() == SolverDense {
			s.acSolver = linalg.NewDenseComplexSolver(n)
		} else {
			sp := linalg.NewSparseComplexSolver(n)
			if c.Opts.SymCache != nil {
				sp.SetSymbolicCache(c.Opts.SymCache)
			}
			s.acSolver = sp
		}
		s.acB = make([]complex128, n)
		s.acPrev = linalg.SolverStats{}
	}
	return s
}

// New returns an empty circuit containing only the ground node.
func New() *Circuit {
	return &Circuit{nodeIndex: map[string]int{Ground: groundIndex, "gnd": groundIndex, "GND": groundIndex}}
}

// Node interns a node name and returns its MNA index (ground is -1).
func (c *Circuit) Node(name string) int {
	if idx, ok := c.nodeIndex[name]; ok {
		return idx
	}
	idx := len(c.nodeNames)
	c.nodeIndex[name] = idx
	c.nodeNames = append(c.nodeNames, name)
	return idx
}

// NodeName returns the name of node index i ("0" for ground).
func (c *Circuit) NodeName(i int) string {
	if i == groundIndex {
		return Ground
	}
	return c.nodeNames[i]
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// NumVars returns the total MNA system size (nodes plus branch currents).
func (c *Circuit) NumVars() int { return len(c.nodeNames) + len(c.branchDevs) }

// Add registers a device. Devices requiring branch currents (voltage
// sources, controlled sources) receive their branch index lazily at
// analysis time — nodes may still be interned after the device is added.
func (c *Circuit) Add(d Device) {
	if b, ok := d.(branchDevice); ok {
		c.branchDevs = append(c.branchDevs, b)
	}
	c.devices = append(c.devices, d)
}

// finalize assigns branch-current indices after all nodes are known.
// Analyses call it before assembling their first system; it is idempotent
// as long as no nodes are interned mid-analysis.
func (c *Circuit) finalize() {
	for i, b := range c.branchDevs {
		b.setBranch(len(c.nodeNames) + i)
	}
}

// Devices returns the registered devices in insertion order.
func (c *Circuit) Devices() []Device { return c.devices }

// FindDevice returns the first device with the given name, or nil.
func (c *Circuit) FindDevice(name string) Device {
	for _, d := range c.devices {
		if d.Name() == name {
			return d
		}
	}
	return nil
}

// stampCtx carries Newton-iteration context into device stamps.
type stampCtx struct {
	// srcScale scales all independent sources; the source-stepping
	// homotopy ramps it from 0 to 1.
	srcScale float64
	// gmin is a leak conductance from every node to ground added by the
	// solver (not the devices); kept here for reporting.
	gmin float64
}

// Device is a circuit element that can stamp itself into the DC Jacobian /
// residual and into the complex AC system. Stamps target the
// solver-agnostic Stamper interfaces, so the same device code assembles
// dense and compressed-column systems.
type Device interface {
	// Name returns the instance name (unique by convention, not enforced).
	Name() string
	// StampDC adds the device's Jacobian entries to jac and its branch
	// current/voltage residuals to res, both evaluated at iterate x.
	StampDC(jac linalg.Stamper, res linalg.Vector, x linalg.Vector, ctx *stampCtx)
	// StampAC adds the small-signal contribution at angular frequency
	// omega, linearized around the DC solution xdc, into the complex
	// system (a, b).
	StampAC(a linalg.CStamper, b []complex128, omega float64, xdc linalg.Vector)
}

// branchDevice is implemented by devices that own an MNA branch variable.
type branchDevice interface {
	setBranch(idx int)
}

// addJac accumulates jac[i][j] += v, skipping ground rows/columns.
func addJac(jac linalg.Stamper, i, j int, v float64) {
	if i == groundIndex || j == groundIndex {
		return
	}
	jac.Addto(i, j, v)
}

// addRes accumulates res[i] += v, skipping the ground row.
func addRes(res linalg.Vector, i int, v float64) {
	if i == groundIndex {
		return
	}
	res[i] += v
}

// addAC accumulates a[i][j] += v, skipping ground rows/columns.
func addAC(a linalg.CStamper, i, j int, v complex128) {
	if i == groundIndex || j == groundIndex {
		return
	}
	a.Addto(i, j, v)
}

// volt reads the voltage of node i from iterate x (0 for ground).
func volt(x linalg.Vector, i int) float64 {
	if i == groundIndex {
		return 0
	}
	return x[i]
}

// cvolt reads the complex voltage of node i (0 for ground).
func cvolt(x []complex128, i int) complex128 {
	if i == groundIndex {
		return 0
	}
	return x[i]
}

// String renders a short netlist summary for debugging.
func (c *Circuit) String() string {
	return fmt.Sprintf("spice.Circuit{%d nodes, %d branches, %d devices}",
		len(c.nodeNames), len(c.branchDevs), len(c.devices))
}
