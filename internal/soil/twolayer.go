package soil

import (
	"fmt"
	"math"

	"earthing/internal/geom"
	"earthing/internal/quad"
)

// TwoLayer is the two-layer stratified soil model: a top layer of
// conductivity Gamma1 and thickness H over an infinite lower layer of
// conductivity Gamma2. Its kernels are infinite series of images obtained by
// repeated reflection across the earth surface (coefficient +1, air as a
// perfect insulator) and the layer interface (coefficient K, eq. 3.2).
//
// K = (γ1 − γ2)/(γ1 + γ2) is the ratio κ of the paper; the series converge
// geometrically with ratio |K|, which is why grounding analysis becomes
// expensive when the layer contrast is large (|K| → 1).
type TwoLayer struct {
	Gamma1, Gamma2 float64 // layer conductivities, (Ω·m)⁻¹
	H              float64 // top-layer thickness, m
	Control        SeriesControl
}

// NewTwoLayer validates and returns a two-layer model.
func NewTwoLayer(gamma1, gamma2, h float64) *TwoLayer {
	if !positiveFinite(gamma1) || !positiveFinite(gamma2) {
		panic(fmt.Sprintf("soil: conductivities (γ1=%g, γ2=%g) must be positive and finite", gamma1, gamma2))
	}
	if !positiveFinite(h) {
		panic(fmt.Sprintf("soil: layer thickness %g must be positive and finite", h))
	}
	return &TwoLayer{Gamma1: gamma1, Gamma2: gamma2, H: h}
}

// K returns the reflection coefficient (γ1 − γ2)/(γ1 + γ2) ∈ (−1, 1).
func (m *TwoLayer) K() float64 {
	return (m.Gamma1 - m.Gamma2) / (m.Gamma1 + m.Gamma2)
}

// NumLayers implements Model.
func (*TwoLayer) NumLayers() int { return 2 }

// LayerOf implements Model. The interface depth itself belongs to layer 1.
func (m *TwoLayer) LayerOf(z float64) int {
	if z <= m.H {
		return 1
	}
	return 2
}

// Conductivity implements Model.
func (m *TwoLayer) Conductivity(layer int) float64 {
	switch layer {
	case 1:
		return m.Gamma1
	case 2:
		return m.Gamma2
	default:
		panic(fmt.Sprintf("soil: two-layer model has no layer %d", layer))
	}
}

// ImageExpansion implements Model. The four source/observer layer cases
// carry different image ladders (all derived from the Hankel-transform
// solution of problem (2.3); see DESIGN.md §3):
//
//	src=1 obs=1: group 0 = source + surface image (weight 1);
//	             group n ≥ 1 = 4 images at z′ = ±z ± 2nH, weight Kⁿ.
//	src=1 obs=2: group n ≥ 0 = 2 images at z′ = ±z − 2nH, weight (1+K)Kⁿ.
//	src=2 obs=2: group 0 = source (weight 1) + image at 2H−z (weight −K);
//	             group m ≥ 1 = 1 image at z′ = −z + 2(1−m)H,
//	             weight (1−K²)K^{m−1}.
//	src=2 obs=1: group m ≥ 0 = 2 images at z′ = ±(z + 2mH), weight (1−K)K^m.
//
// The kernel prefactor is always 1/(4πγ_src).
func (m *TwoLayer) ImageExpansion(src, obs, maxGroup int) ([]Image, bool) {
	if src < 1 || src > 2 || obs < 1 || obs > 2 {
		panic(fmt.Sprintf("soil: invalid layer pair (%d, %d)", src, obs))
	}
	k := m.K()
	h := m.H
	var out []Image
	switch {
	case src == 1 && obs == 1:
		out = append(out,
			Image{Sign: +1, Offset: 0, Weight: 1, Group: 0},
			Image{Sign: -1, Offset: 0, Weight: 1, Group: 0},
		)
		kn := 1.0
		for n := 1; n <= maxGroup; n++ {
			kn *= k
			c := 2 * float64(n) * h
			out = append(out,
				Image{Sign: +1, Offset: +c, Weight: kn, Group: n},
				Image{Sign: +1, Offset: -c, Weight: kn, Group: n},
				Image{Sign: -1, Offset: +c, Weight: kn, Group: n},
				Image{Sign: -1, Offset: -c, Weight: kn, Group: n},
			)
		}
	case src == 1 && obs == 2:
		kn := 1.0
		for n := 0; n <= maxGroup; n++ {
			c := -2 * float64(n) * h
			w := (1 + k) * kn
			out = append(out,
				Image{Sign: +1, Offset: c, Weight: w, Group: n},
				Image{Sign: -1, Offset: c, Weight: w, Group: n},
			)
			kn *= k
		}
	case src == 2 && obs == 2:
		out = append(out,
			Image{Sign: +1, Offset: 0, Weight: 1, Group: 0},
			Image{Sign: -1, Offset: 2 * h, Weight: -k, Group: 0},
		)
		km := 1.0 // K^{m−1} for m = 1
		for mm := 1; mm <= maxGroup; mm++ {
			c := 2 * (1 - float64(mm)) * h
			out = append(out, Image{Sign: -1, Offset: c, Weight: (1 - k*k) * km, Group: mm})
			km *= k
		}
	case src == 2 && obs == 1:
		km := 1.0
		for mm := 0; mm <= maxGroup; mm++ {
			c := 2 * float64(mm) * h
			w := (1 - k) * km
			out = append(out,
				Image{Sign: +1, Offset: +c, Weight: w, Group: mm},
				Image{Sign: -1, Offset: -c, Weight: w, Group: mm},
			)
			km *= k
		}
	}
	return out, true
}

// PointPotential implements Model by summing the image series with the
// model's SeriesControl truncation.
func (m *TwoLayer) PointPotential(x, xi geom.Vec3) float64 {
	ctl := m.Control.withDefaults()
	src := m.LayerOf(xi.Z)
	obs := m.LayerOf(x.Z)
	images, _ := m.ImageExpansion(src, obs, ctl.MaxGroups)
	var sum, groupSum quad.KahanSum
	group := 0
	smallGroups := 0
	for _, im := range images {
		if im.Group != group {
			g := groupSum.Sum()
			sum.Add(g)
			if math.Abs(g) <= ctl.Tol*math.Abs(sum.Sum()) {
				smallGroups++
				if smallGroups >= 2 {
					break
				}
			} else {
				smallGroups = 0
			}
			groupSum.Reset()
			group = im.Group
		}
		groupSum.Add(im.Weight / x.Dist(im.Apply(xi)))
	}
	sum.Add(groupSum.Sum())
	return sum.Sum() / (4 * math.Pi * m.Conductivity(src))
}

// Describe implements Model.
func (m *TwoLayer) Describe() string {
	return fmt.Sprintf("two-layer soil, γ1 = %g, γ2 = %g (Ω·m)⁻¹, h = %g m (K = %.4f)",
		m.Gamma1, m.Gamma2, m.H, m.K())
}
