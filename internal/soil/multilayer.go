package soil

import (
	"fmt"
	"math"
	"sync"

	"earthing/internal/geom"
	"earthing/internal/quad"
)

// MultiLayer is the general C-layer horizontally stratified soil model. It
// has no closed-form image expansion; PointPotential evaluates the layered-
// earth Green's function by a numeric Hankel transform
//
//	V(r, z) = 1/(4πγ_b) · ( 1/R + ∫₀^∞ φ_c(λ, z) · J0(λr) dλ )
//
// where the secondary kernel φ_c is obtained for each λ by solving the
// small linear system expressing the surface condition and the continuity
// of potential and normal current across every interface. This realizes the
// paper's statement (§4.2) that the BEM formulation "can be applied to any
// other case with a higher number of layers" at growing cost: each kernel
// evaluation is far more expensive than an image-series term.
type MultiLayer struct {
	gammas []float64 // conductivity per layer, top first
	depths []float64 // interface depths, increasing; len = C−1
	// Tol is the Hankel-integral tolerance (default 1e-8).
	Tol float64
	// MaxIntervals bounds the oscillatory integrator (default 4000).
	MaxIntervals int

	// Cached top-layer image expansion (built on first use).
	expMu       sync.Mutex
	gammaSeries expSeries
	gammaPow    expSeries
	imgCache    [][]Image
	ladderEnd   bool // a group failed expandOnce's moment check

	// unit memoizes Normalize's unit model, so repeated analyses of this
	// model share one unit model and its image expansion, which can take
	// seconds to build at high contrast.
	unitMu sync.Mutex
	unit   *MultiLayer
}

// NewMultiLayer builds a model from per-layer conductivities (top first) and
// layer thicknesses (all but the last, infinite, layer). It returns an error
// for conductivities or thicknesses that are not positive and finite.
func NewMultiLayer(gammas, thicknesses []float64) (*MultiLayer, error) {
	if len(gammas) < 1 {
		return nil, fmt.Errorf("soil: need at least one layer")
	}
	if len(thicknesses) != len(gammas)-1 {
		return nil, fmt.Errorf("soil: %d layers need %d thicknesses, got %d",
			len(gammas), len(gammas)-1, len(thicknesses))
	}
	for i, g := range gammas {
		if !positiveFinite(g) {
			return nil, fmt.Errorf("soil: layer %d conductivity %g must be positive and finite", i+1, g)
		}
	}
	depths := make([]float64, len(thicknesses))
	z := 0.0
	for i, t := range thicknesses {
		if !positiveFinite(t) {
			return nil, fmt.Errorf("soil: layer %d thickness %g must be positive and finite", i+1, t)
		}
		z += t
		depths[i] = z
	}
	g := make([]float64, len(gammas))
	copy(g, gammas)
	return &MultiLayer{gammas: g, depths: depths}, nil
}

// unitModel returns m with every conductivity divided by γ₁ (m itself when
// γ₁ is 1), built once and again only after Tol or MaxIntervals change.
func (m *MultiLayer) unitModel() *MultiLayer {
	m.unitMu.Lock()
	defer m.unitMu.Unlock()
	g1 := m.gammas[0]
	//lint:ignore floatcmp exactly 1 is the unit model itself; any other value is divided out
	if g1 == 1 {
		return m
	}
	//lint:ignore floatcmp a memo is reused only for bit-equal controls
	if u := m.unit; u != nil && u.Tol == m.Tol && u.MaxIntervals == m.MaxIntervals {
		return u
	}
	gammas := make([]float64, len(m.gammas))
	for i, g := range m.gammas {
		gammas[i] = g / g1
	}
	m.unit = &MultiLayer{gammas: gammas, depths: m.depths, Tol: m.Tol, MaxIntervals: m.MaxIntervals}
	return m.unit
}

// NumLayers implements Model.
func (m *MultiLayer) NumLayers() int { return len(m.gammas) }

// LayerOf implements Model; interface depths belong to the upper layer.
func (m *MultiLayer) LayerOf(z float64) int {
	for i, d := range m.depths {
		if z <= d {
			return i + 1
		}
	}
	return len(m.gammas)
}

// Conductivity implements Model.
func (m *MultiLayer) Conductivity(layer int) float64 {
	if layer < 1 || layer > len(m.gammas) {
		panic(fmt.Sprintf("soil: model has no layer %d", layer))
	}
	return m.gammas[layer-1]
}

// ImageExpansion implements Model. For a source and observer both in the
// top layer it expands the recursive reflection coefficient Γ_1(λ) into an
// exponential series and returns the resulting real images — the "double
// series" (three layers), "triple series" (four layers), … of §4.2. Group n
// collects the images of the Γⁿ ladder rung, so the assembler's group-wise
// tolerance truncation applies unchanged; the ladder ends early at the last
// group it can trust (see expandOnce). Other layer pairs return ok = false
// and callers fall back to the Hankel-transform kernel.
func (m *MultiLayer) ImageExpansion(src, obs, maxGroup int) ([]Image, bool) {
	if len(m.gammas) == 1 {
		return Uniform{Gamma: m.gammas[0]}.ImageExpansion(src, obs, maxGroup)
	}
	if src != 1 || obs != 1 {
		return nil, false
	}
	m.expandOnce(maxGroup)
	if maxGroup >= len(m.imgCache) {
		maxGroup = len(m.imgCache) - 1
	}
	var out []Image
	for g := 0; g <= maxGroup; g++ {
		out = append(out, m.imgCache[g]...)
	}
	return out, true
}

// expandOnce builds (and caches) the image groups up to maxGroup.
//
// Γ_1's geometric inversions run to convergence: every power adds at least
// one 2·t depth, so the depth cut ends them, and maxPow only bounds the work
// for pathologically thin layers. An inversion cut short is not the
// physical coefficient: at contrasts |K| ≳ 0.95 the coefficients of its
// powers grow exponentially and the depth-pruned groups lose the
// cancellation between them, so the ladder diverges.
//
// A group joins the ladder only if it passes a moment check: at λ = 0 the
// weights of group n sum to Γ_1(0)ⁿ exactly. The depth cut is exact for the
// depths it keeps, so the missing moment δ is image mass beyond maxDepth,
// worth a potential of order |δ|/maxDepth per unit source; a group with
// |δ| > trustTol·maxDepth ends the ladder, which serves the groups before it.
func (m *MultiLayer) expandOnce(maxGroup int) {
	m.expMu.Lock()
	defer m.expMu.Unlock()
	if len(m.imgCache) > maxGroup && len(m.imgCache) > 0 || m.ladderEnd {
		return
	}
	const (
		pruneTol = 1e-10
		maxPow   = 1 << 12
		trustTol = 1e-6
	)
	total := m.depths[len(m.depths)-1]
	maxDepth := 400 * (total + 1)
	if m.gammaSeries.c == nil {
		thick := make([]float64, len(m.depths))
		prev := 0.0
		for i, d := range m.depths {
			thick[i] = d - prev
			prev = d
		}
		m.gammaSeries = reflectionSeries(m.gammas, thick, pruneTol, maxDepth, maxPow)
	}
	h1 := m.depths[0]

	// Group 0: primary + surface image.
	if len(m.imgCache) == 0 {
		m.imgCache = append(m.imgCache, []Image{
			{Sign: +1, Offset: 0, Weight: 1, Group: 0},
			{Sign: -1, Offset: 0, Weight: 1, Group: 0},
		})
		m.gammaPow = newExpConst(1)
	}
	// At λ = 0 every inner layer is transparent (the recursion composes
	// K_j = tanh(½·ln γ_j/γ_{j+1}) by tanh addition), so Γ_1(0) = K_{1,C}.
	c := len(m.gammas)
	gamma0 := (m.gammas[0] - m.gammas[c-1]) / (m.gammas[0] + m.gammas[c-1])
	for n := len(m.imgCache); n <= maxGroup; n++ {
		m.gammaPow = m.gammaPow.mul(m.gammaSeries).prune(pruneTol, maxDepth)
		if len(m.gammaPow.c) == 0 {
			break
		}
		if math.Abs(m.gammaPow.eval(0)-math.Pow(gamma0, float64(n))) > trustTol*maxDepth {
			m.ladderEnd = true
			break
		}
		var grp []Image
		base := 2 * float64(n) * h1
		for i, w := range m.gammaPow.c {
			off := base + m.gammaPow.d[i]
			grp = append(grp,
				Image{Sign: +1, Offset: +off, Weight: w, Group: n},
				Image{Sign: +1, Offset: -off, Weight: w, Group: n},
				Image{Sign: -1, Offset: +off, Weight: w, Group: n},
				Image{Sign: -1, Offset: -off, Weight: w, Group: n},
			)
		}
		m.imgCache = append(m.imgCache, grp)
	}
}

// Describe implements Model.
func (m *MultiLayer) Describe() string {
	return fmt.Sprintf("%d-layer soil (Hankel), γ = %v, interfaces at %v m",
		len(m.gammas), m.gammas, m.depths)
}

// layerBounds returns the [top, bottom] depths of 1-based layer i, with
// +Inf for the bottom of the last layer.
func (m *MultiLayer) layerBounds(i int) (top, bottom float64) {
	if i == 1 {
		top = 0
	} else {
		top = m.depths[i-2]
	}
	if i == len(m.gammas) {
		bottom = math.Inf(1)
	} else {
		bottom = m.depths[i-1]
	}
	return top, bottom
}

// PointPotential implements Model.
func (m *MultiLayer) PointPotential(x, xi geom.Vec3) float64 {
	c := len(m.gammas)
	if c == 1 {
		return Uniform{Gamma: m.gammas[0]}.PointPotential(x, xi)
	}
	d := xi.Z
	// Nudge a source sitting exactly on an interface into its layer so the
	// primary-field derivative at the interface is well defined.
	for _, zj := range m.depths {
		if eps := 1e-9 * (1 + zj); math.Abs(d-zj) < eps {
			d = zj - eps
			break
		}
	}
	z := x.Z
	r := x.HorizontalDist(xi)
	srcLayer := m.LayerOf(d)
	obsLayer := m.LayerOf(z)
	gb := m.gammas[srcLayer-1]

	tol := m.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	maxIv := m.MaxIntervals
	if maxIv <= 0 {
		maxIv = 4000
	}

	sec, err := quad.SemiInfinite(func(lambda float64) float64 {
		return m.secondaryKernel(lambda, z, d, srcLayer, obsLayer) * math.J0(lambda*r)
	}, m.cuts(r, z, d), tol, maxIv)
	if err != nil {
		// Return the best estimate; the engine treats kernel noise at the
		// integration tolerance as acceptable. NaN would poison the matrix,
		// so keep the partial value.
		//lint:ignore errdrop quadrature non-convergence keeps the partial value by design; see the comment above
		_ = err
	}
	return (1/x.Dist(xi) + sec) / (4 * math.Pi * gb)
}

// cuts builds the integration break points: interval widths start small
// enough to resolve the fastest-decaying exponential component and grow
// geometrically, capped by the J0(λr) half-oscillation π/r.
func (m *MultiLayer) cuts(r, z, d float64) func(k int) float64 {
	total := 0.0
	if n := len(m.depths); n > 0 {
		total = m.depths[n-1]
	}
	deltaMax := z + d + 2*total + r
	if deltaMax < 1e-3 {
		deltaMax = 1e-3
	}
	w0 := 2 / deltaMax
	wOsc := math.Inf(1)
	if r > 0 {
		wOsc = math.Pi / r
	}
	// Memoized cumulative cut positions.
	cum := []float64{0}
	return func(k int) float64 {
		for len(cum) <= k {
			i := len(cum) - 1
			w := w0 * math.Pow(1.5, float64(i))
			if w > wOsc {
				w = wOsc
			}
			cum = append(cum, cum[i]+w)
		}
		return cum[k]
	}
}

// secondaryKernel solves the per-λ transfer problem and evaluates the
// secondary (reflected) potential transform φ_obs(λ, z).
//
// In layer i ∈ [z_{i−1}, z_i] the secondary field is expanded in the locally
// scaled basis
//
//	φ_i(z) = a_i·e^{−λ(z−z_{i−1})} + b_i·e^{−λ(z_i−z)}
//
// (b_C ≡ 0 in the infinite bottom layer), so every matrix entry stays in
// (0, 1] and the solve is stable at large λ·h. The primary e^{−λ|z−d|} is
// carried in all layers, so the interface rows only balance the flux jump
// (γ_{i+1}−γ_i)·P′.
func (m *MultiLayer) secondaryKernel(lambda, z, d float64, srcLayer, obsLayer int) float64 {
	c := len(m.gammas)
	n := 2*c - 1 // unknowns a_1,b_1,…,a_{C−1},b_{C−1},a_C
	// Column index helpers.
	ai := func(i int) int { return 2 * (i - 1) }
	bi := func(i int) int { return 2*(i-1) + 1 }

	// E_i = e^{−λ·t_i} for finite layers.
	e := make([]float64, c) // e[i-1] for layer i; last layer unused
	for i := 1; i < c; i++ {
		top, bot := m.layerBounds(i)
		e[i-1] = math.Exp(-lambda * (bot - top))
	}

	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	row := 0
	// Surface: −a_1 + E_1·b_1 = −e^{−λd}.
	a[row][ai(1)] = -1
	if c > 1 {
		a[row][bi(1)] = e[0]
	}
	a[row][n] = -math.Exp(-lambda * d)
	row++
	for j := 1; j < c; j++ {
		zj := m.depths[j-1]
		gj, gj1 := m.gammas[j-1], m.gammas[j]
		// Value continuity: a_j·E_j + b_j − a_{j+1} − b_{j+1}·E_{j+1} = 0.
		a[row][ai(j)] = e[j-1]
		a[row][bi(j)] = 1
		a[row][ai(j+1)] = -1
		if j+1 < c {
			a[row][bi(j+1)] = -e[j]
		}
		row++
		// Flux: γ_j(−a_j·E_j + b_j) − γ_{j+1}(−a_{j+1} + b_{j+1}·E_{j+1})
		//       = (γ_{j+1}−γ_j)·(−sign(z_j−d)·e^{−λ|z_j−d|}).
		a[row][ai(j)] = -gj * e[j-1]
		a[row][bi(j)] = gj
		a[row][ai(j+1)] = gj1
		if j+1 < c {
			a[row][bi(j+1)] = -gj1 * e[j]
		}
		sign := 1.0
		if zj < d {
			sign = -1
		}
		a[row][n] = (gj1 - gj) * (-sign * math.Exp(-lambda*math.Abs(zj-d)))
		row++
	}

	u := solveDense(a)

	top, bot := m.layerBounds(obsLayer)
	phi := u[ai(obsLayer)] * math.Exp(-lambda*(z-top))
	if obsLayer < c {
		phi += u[bi(obsLayer)] * math.Exp(-lambda*(bot-z))
	}
	return phi
}

// solveDense performs in-place Gaussian elimination with partial pivoting on
// the augmented system a (n rows, n+1 columns) and returns the solution.
func solveDense(a [][]float64) []float64 {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		piv := a[col][col]
		if piv == 0 {
			// Singular system; return zeros rather than NaNs (the secondary
			// field vanishes in the degenerate λ → limit cases).
			return make([]float64, n)
		}
		inv := 1 / piv
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col] * inv
			for k := col; k <= n; k++ {
				a[r][k] -= f * a[col][k]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = a[i][n] / a[i][i]
	}
	return x
}
