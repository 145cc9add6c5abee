// Package variation models the process statistics of the paper's Sec. 4:
// global (inter-die) parameter shifts shared by all devices of one polarity
// and local (intra-die, mismatch) variations whose standard deviation
// follows the Pelgrom area law σ ∝ 1/√(WL). Because the local sigmas
// depend on transistor geometry, the covariance matrix C(d) depends on the
// design vector; the package provides the normalization map s = G(d)·ŝ
// (Eq. 11) that the evaluation layer applies so the optimizer always works
// in the constant N(0, I) space.
package variation

import (
	"fmt"
	"math"
)

// Kind distinguishes what a statistical parameter perturbs.
type Kind int

const (
	// VthShift adds to the threshold magnitude [V].
	VthShift Kind = iota
	// BetaRel scales the transconductance factor multiplicatively:
	// effective KP factor = 1 + value.
	BetaRel
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case VthShift:
		return "dVth"
	case BetaRel:
		return "dBeta"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Global is a die-level parameter applied to every device of one polarity.
type Global struct {
	Name     string
	Kind     Kind
	Polarity int     // +1 NMOS, -1 PMOS, 0 both
	Sigma    float64 // physical standard deviation
}

// Local is a per-device mismatch parameter with a Pelgrom area coefficient.
type Local struct {
	Name   string
	Device string // instance name in the netlist
	Kind   Kind
	// A is the Pelgrom coefficient: σ = A / √(W·L) with W, L in µm, so
	// A carries units of V·µm (VthShift) or µm (BetaRel, relative).
	A float64
}

// Model is the full statistical description: globals first, then locals.
// The normalized vector ŝ indexes them in that order.
type Model struct {
	Globals []Global
	Locals  []Local
}

// Dim returns the statistical-space dimension.
func (m *Model) Dim() int { return len(m.Globals) + len(m.Locals) }

// Names returns the parameter names in ŝ order.
func (m *Model) Names() []string {
	names := make([]string, 0, m.Dim())
	for _, g := range m.Globals {
		names = append(names, g.Name)
	}
	for _, l := range m.Locals {
		names = append(names, l.Name)
	}
	return names
}

// SigmaVth returns the Pelgrom threshold-mismatch sigma for a device with
// the given geometry in meters: σ = A_VT / √(W·L in µm²).
func SigmaVth(avtVum float64, wMeters, lMeters float64) float64 {
	areaUm2 := wMeters * lMeters * 1e12
	return avtVum / math.Sqrt(areaUm2)
}

// SigmaBeta returns the Pelgrom relative-beta sigma (dimensionless):
// σ = A_β / √(W·L in µm²).
func SigmaBeta(abUm float64, wMeters, lMeters float64) float64 {
	areaUm2 := wMeters * lMeters * 1e12
	return abUm / math.Sqrt(areaUm2)
}

// Geometry reports a device's channel geometry in meters for a given
// design vector; the circuit layer provides it.
type Geometry func(device string) (w, l float64)

// Delta is one physical perturbation to apply to a device (or to all
// devices of a polarity when Device is empty).
type Delta struct {
	Device   string
	Polarity int
	Kind     Kind
	Value    float64
}

// Physical maps a normalized sample ŝ to the list of physical deltas for
// the current design geometry; this is s = G(d)·ŝ with diagonal G (local
// variations are spatially uncorrelated per Pelgrom, and globals are
// modeled as independent normalized components).
func (m *Model) Physical(shat []float64, geom Geometry) []Delta {
	return m.AppendPhysical(make([]Delta, 0, m.Dim()), shat, geom)
}

// AppendPhysical appends Physical's deltas to dst and returns the
// extended slice, so a caller evaluating many samples can reuse one
// buffer.
func (m *Model) AppendPhysical(dst []Delta, shat []float64, geom Geometry) []Delta {
	if len(shat) != m.Dim() {
		panic(fmt.Sprintf("variation: sample dim %d, model dim %d", len(shat), m.Dim()))
	}
	out := dst
	idx := 0
	for _, g := range m.Globals {
		out = append(out, Delta{
			Polarity: g.Polarity,
			Kind:     g.Kind,
			Value:    g.Sigma * shat[idx],
		})
		idx++
	}
	for _, l := range m.Locals {
		w, lch := geom(l.Device)
		var sigma float64
		switch l.Kind {
		case VthShift:
			sigma = SigmaVth(l.A, w, lch)
		case BetaRel:
			sigma = SigmaBeta(l.A, w, lch)
		}
		out = append(out, Delta{
			Device: l.Device,
			Kind:   l.Kind,
			Value:  sigma * shat[idx],
		})
		idx++
	}
	return out
}

// LocalIndex returns the ŝ index of the named local parameter, or -1.
func (m *Model) LocalIndex(name string) int {
	for i, l := range m.Locals {
		if l.Name == name {
			return len(m.Globals) + i
		}
	}
	return -1
}
