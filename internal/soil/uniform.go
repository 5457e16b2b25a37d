package soil

import (
	"fmt"
	"math"

	"earthing/internal/geom"
)

// Uniform is the single-layer (homogeneous, isotropic) soil model. Its image
// expansion has exactly two terms — the source and its reflection across the
// earth surface — which is why uniform-soil grounding analysis "runs in real
// time in personal computers" (§1 of the paper).
type Uniform struct {
	// Gamma is the apparent scalar soil conductivity in (Ω·m)⁻¹.
	Gamma float64
}

// NewUniform returns a uniform soil model; gamma must be positive and
// finite.
func NewUniform(gamma float64) Uniform {
	if !positiveFinite(gamma) {
		panic(fmt.Sprintf("soil: conductivity %g must be positive and finite", gamma))
	}
	return Uniform{Gamma: gamma}
}

// positiveFinite reports whether a conductivity or thickness v is usable:
// positive and finite (NaN fails both).
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// NumLayers implements Model.
func (Uniform) NumLayers() int { return 1 }

// LayerOf implements Model.
func (Uniform) LayerOf(float64) int { return 1 }

// Conductivity implements Model.
func (u Uniform) Conductivity(layer int) float64 {
	if layer != 1 {
		panic(fmt.Sprintf("soil: uniform model has no layer %d", layer))
	}
	return u.Gamma
}

// ImageExpansion implements Model: the primary source plus its mirror image
// across the earth surface, both with unit weight (the air above is a
// perfect insulator, so the surface reflection coefficient is +1).
func (u Uniform) ImageExpansion(src, obs, maxGroup int) ([]Image, bool) {
	if maxGroup < 0 {
		return nil, true
	}
	return []Image{
		{Sign: +1, Offset: 0, Weight: 1, Group: 0},
		{Sign: -1, Offset: 0, Weight: 1, Group: 0},
	}, true
}

// PointPotential implements Model: V = (1/4πγ)(1/r + 1/r′) with r′ the
// distance to the surface image.
func (u Uniform) PointPotential(x, xi geom.Vec3) float64 {
	r := x.Dist(xi)
	rImg := x.Dist(xi.Mirror(0))
	return (1/r + 1/rImg) / (4 * math.Pi * u.Gamma)
}

// Describe implements Model.
func (u Uniform) Describe() string {
	return fmt.Sprintf("uniform soil, γ = %g (Ω·m)⁻¹", u.Gamma)
}
