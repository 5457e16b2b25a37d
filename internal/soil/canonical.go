package soil

import (
	"fmt"
	"strings"
)

// LayerParameters implements Model.
func (u Uniform) LayerParameters() (gammas, depths []float64) {
	return []float64{u.Gamma}, nil
}

// LayerParameters implements Model.
func (m *TwoLayer) LayerParameters() (gammas, depths []float64) {
	return []float64{m.Gamma1, m.Gamma2}, []float64{m.H}
}

// LayerParameters implements Model.
func (m *MultiLayer) LayerParameters() (gammas, depths []float64) {
	return m.gammas, m.depths
}

// Normalize divides every conductivity of m by its top-layer conductivity
// γ₁, returning the unit model (γ₁ exactly 1, depths and series controls
// kept) and γ₁. Every kernel carries the prefactor 1/(4πγ_src) and depends
// on the conductivities otherwise only through their ratios, so m's BEM
// system is the unit model's divided by γ₁: at a fixed GPR the two share
// potentials and fields, and m's leakage density is γ₁ times the unit
// model's. Models whose normalized parameters are bit-equal therefore share
// one solve exactly. A Model of another type (a wrapper) is returned as is
// with γ₁ = 1, which is exact but shares nothing.
func Normalize(m Model) (unit Model, gamma1 float64) {
	switch m := m.(type) {
	case Uniform:
		return Uniform{Gamma: 1}, m.Gamma
	case *TwoLayer:
		return &TwoLayer{Gamma1: 1, Gamma2: m.Gamma2 / m.Gamma1, H: m.H, Control: m.Control}, m.Gamma1
	case *MultiLayer:
		return m.unitModel(), m.gammas[0]
	default:
		return m, 1
	}
}

// Canonical renders the model kind and every result-affecting parameter at
// full float64 precision: two models with equal canonical strings produce
// bit-identical kernels. The kind matters on its own — a two-layer model and
// a two-layer MultiLayer of the same parameters evaluate different series —
// and so do the series controls.
func Canonical(m Model) string {
	var b strings.Builder
	switch m := m.(type) {
	case Uniform:
		b.WriteString("uniform")
	case *TwoLayer:
		fmt.Fprintf(&b, "two-layer;tol=%.17g;groups=%d", m.Control.Tol, m.Control.MaxGroups)
	case *MultiLayer:
		fmt.Fprintf(&b, "multi;tol=%.17g;intervals=%d", m.Tol, m.MaxIntervals)
	default:
		fmt.Fprintf(&b, "%T", m)
	}
	gammas, depths := m.LayerParameters()
	b.WriteString("|")
	for _, g := range gammas {
		fmt.Fprintf(&b, ";%.17g", g)
	}
	b.WriteString("|")
	for _, d := range depths {
		fmt.Fprintf(&b, ";%.17g", d)
	}
	return b.String()
}
