package grid

import (
	"fmt"
	"math"
	"math/rand"

	"earthing/internal/geom"
)

// RectMesh builds a rectangular grounding mesh: nx equally spaced lines
// parallel to the y axis and ny lines parallel to the x axis, spanning
// width × height metres with the lower-left corner at (x0, y0), buried at
// the given depth. Every span between adjacent crossings becomes one
// conductor, which is the natural unit for the paper's per-segment
// discretization. nx, ny ≥ 2.
func RectMesh(x0, y0, width, height float64, nx, ny int, depth, radius float64) *Grid {
	checkLines("RectMesh", nx, ny)
	g := &Grid{Name: fmt.Sprintf("rect-%dx%d", nx, ny)}
	g.addLattice(linspace(x0, x0+width, nx), linspace(y0, y0+height, ny), depth, radius, nil)
	return g
}

// TriangleMesh builds a right-triangle grounding mesh with legs legX (along
// x) and legY (along y), the right angle at the origin, and the hypotenuse
// from (legX, 0) to (0, legY). The nx × ny crossing lattice is clipped to
// the triangle; spans whose endpoints both survive the clip become
// conductors. This is the Barberá plan shape (Fig 5.1).
func TriangleMesh(legX, legY float64, nx, ny int, depth, radius float64) *Grid {
	checkLines("TriangleMesh", nx, ny)
	g := &Grid{Name: fmt.Sprintf("triangle-%dx%d", nx, ny)}
	g.addTriangleLattice(legX, legY, linspace(0, legX, nx), linspace(0, legY, ny), depth, radius)
	return g
}

// checkLines panics unless a lattice generator got at least two lines per
// direction.
func checkLines(fn string, nx, ny int) {
	if nx < 2 || ny < 2 {
		panic(fmt.Sprintf("grid: %s needs nx, ny ≥ 2, got %d×%d", fn, nx, ny))
	}
}

// addLattice adds the crossing lattice of the lines x = xs[i] and
// y = ys[j] at the given depth: one conductor per span between adjacent
// crossings, the x = const lines first, each in ascending order. Spans
// for which skip (when non-nil) reports true are left out.
func (g *Grid) addLattice(xs, ys []float64, depth, radius float64, skip func(a, b geom.Vec3) bool) {
	add := func(a, b geom.Vec3) {
		if skip == nil || !skip(a, b) {
			g.AddConductor(a, b, radius)
		}
	}
	for _, x := range xs {
		for j := 0; j+1 < len(ys); j++ {
			add(geom.V(x, ys[j], depth), geom.V(x, ys[j+1], depth))
		}
	}
	for _, y := range ys {
		for i := 0; i+1 < len(xs); i++ {
			add(geom.V(xs[i], y, depth), geom.V(xs[i+1], y, depth))
		}
	}
}

// addTriangleLattice adds the crossing lattice of xs × ys clipped to the
// right triangle with legs legX, legY at the origin: crossings with
// x/legX + y/legY ≤ 1 survive, and each span whose two endpoints survive
// becomes a conductor, node by node.
func (g *Grid) addTriangleLattice(legX, legY float64, xs, ys []float64, depth, radius float64) {
	const eps = 1e-9
	keep := func(x, y float64) bool { return x/legX+y/legY <= 1+eps }
	for i, x := range xs {
		for j, y := range ys {
			if !keep(x, y) {
				continue
			}
			if i+1 < len(xs) && keep(xs[i+1], y) {
				g.AddConductor(geom.V(x, y, depth), geom.V(xs[i+1], y, depth), radius)
			}
			if j+1 < len(ys) && keep(x, ys[j+1]) {
				g.AddConductor(geom.V(x, y, depth), geom.V(x, ys[j+1], depth), radius)
			}
		}
	}
}

// Barbera builds the Barberá substation grounding grid of Example 1
// (§5.1): a right-angled-triangle grid of 143 × 89 m protecting ≈ 6600 m²,
// conductor diameter 12.85 mm, buried at 0.8 m. The published plan gives the
// outline and segment count (408 segments, 238 DoF with linear elements);
// the interior lattice spacing is synthesized as a uniform clipped lattice
// with matching leg lengths — see DESIGN.md §4 for the substitution note.
func Barbera() *Grid {
	// A 16 × 28 clipped lattice yields exactly the paper's 408 conductor
	// segments (226 shared nodes vs the paper's 238 — the unpublished
	// interior spacing differs slightly).
	g := TriangleMesh(89, 143, 16, 28, 0.80, 12.85e-3/2)
	g.Name = "barbera"
	return g
}

// Balaidos builds the Balaidos substation grounding grid of Example 2
// (§5.2): 107 grid conductors (diameter 11.28 mm) buried at 0.8 m,
// supplemented by 67 vertical rods of 1.5 m length and 14.0 mm diameter.
// The conductor mesh is a 9 × 7 line lattice over 80 × 60 m with a clipped
// corner and one omitted edge span (107 spans exactly); the 67 rods are
// distributed uniformly along the perimeter, their tops at grid depth.
func Balaidos() *Grid {
	const (
		depth      = 0.80
		condRadius = 11.28e-3 / 2
		rodRadius  = 14.0e-3 / 2
		rodLen     = 1.5
		w, h       = 80.0, 60.0
	)
	g := &Grid{Name: "balaidos"}
	removedNode := geom.V(w, h, depth) // clipped corner
	g.addLattice(linspace(0, w, 9), linspace(0, h, 7), depth, condRadius, func(a, b geom.Vec3) bool {
		if a.ApproxEqual(removedNode, 1e-9) || b.ApproxEqual(removedNode, 1e-9) {
			return true
		}
		// One omitted span on the west edge (real plans are rarely full
		// lattices; this lands the count at exactly 107).
		return a.ApproxEqual(geom.V(0, 50, depth), 1e-9) && b.ApproxEqual(geom.V(0, 60, depth), 1e-9)
	})
	// 67 rods equally spaced along the perimeter stretches that carry a
	// conductor (the clipped corner and the omitted west span have none —
	// a rod there would be electrically floating). In arc length from the
	// origin, counter-clockwise, the missing stretches are s ∈ [130, 150]
	// (around the clipped corner) and s ∈ [220, 230] (the omitted span).
	perim := 2 * (w + h) // 280 m
	excluded := [][2]float64{{130, 150}, {220, 230}}
	available := perim
	for _, e := range excluded {
		available -= e[1] - e[0]
	}
	for k := 0; k < 67; k++ {
		u := available * float64(k) / 67
		s := u
		for _, e := range excluded {
			if s >= e[0] {
				s += e[1] - e[0]
			}
		}
		x, y := PerimeterPoint(w, h, s)
		g.AddRod(x, y, depth, rodLen, rodRadius)
	}
	return g
}

// BarberaMesh discretizes the Barberá grid the way the paper does: one
// linear element per conductor segment (408 elements).
func BarberaMesh() (*Mesh, error) {
	return Discretize(Barbera(), Linear, 0)
}

// BalaidosMesh discretizes the Balaidos grid the way the paper does: one
// linear element per grid span and two per vertical rod, 241 elements total.
func BalaidosMesh() (*Mesh, error) {
	return DiscretizeN(Balaidos(), Linear, func(c Conductor) int {
		if c.Seg.IsVertical(1e-9) {
			return 2
		}
		return 1
	})
}

// PerimeterPoint maps arc length s (from the origin, counter-clockwise) to a
// point on the w × h rectangle boundary; s wraps modulo the perimeter, and
// s ∈ [0, 2(w+h)) maps without rounding.
func PerimeterPoint(w, h, s float64) (x, y float64) {
	s = math.Mod(s, 2*(w+h))
	switch {
	case s < w:
		return s, 0
	case s < w+h:
		return w, s - w
	case s < 2*w+h:
		return w - (s - w - h), h
	default:
		return 0, h - (s - 2*w - h)
	}
}

// Interconnected builds a deterministic multi-substation grounding system of
// approximately n degrees of freedom under the one-linear-element-per-span
// discretization: several rectangular lattice grids of seeded size and
// spacing ("substations") laid out along x, bonded end to end by tie
// conductors between facing lattice nodes, with vertical rods at every
// substation corner. The same (n, seed) always yields the identical
// geometry — math/rand with an explicit source, no map iteration, no time —
// so benches and tests can share large grids by naming two integers instead
// of shipping megabyte geometry files. Pinned by a golden transcript in
// cmd/gridgen and a 10k-element digest test in this package.
//
// The DoF count tracks n through the node budget (lattice crossings plus rod
// bottoms); lattice rounding keeps it within a few percent of n.
func Interconnected(n int, seed int64) *Grid {
	if n < 16 {
		n = 16
	}
	rng := rand.New(rand.NewSource(seed))
	substations := 2
	switch {
	case n >= 12000:
		substations = 5
	case n >= 6000:
		substations = 4
	case n >= 1500:
		substations = 3
	}
	const (
		condRadius = 0.006
		rodRadius  = 0.007
		rodLen     = 3.0
	)
	// One burial depth for the whole system: the ties are horizontal runs
	// between lattices, so mixed depths would leave them unbonded.
	depth := 0.6 + 0.4*rng.Float64()
	g := &Grid{Name: fmt.Sprintf("interconnected-n%d-s%d", n, seed)}

	// Seeded share of the node budget per substation (rod bottoms take
	// four nodes each).
	shares := make([]float64, substations)
	var sum float64
	for i := range shares {
		shares[i] = 0.75 + 0.5*rng.Float64()
		sum += shares[i]
	}
	budget := float64(n - 4*substations)

	x0 := 0.0
	var prevXMax float64
	var prevYs []float64
	for i := 0; i < substations; i++ {
		target := budget * shares[i] / sum
		aspect := 0.7 + 0.6*rng.Float64()
		nx := int(math.Round(math.Sqrt(target * aspect)))
		if nx < 2 {
			nx = 2
		}
		ny := int(math.Round(target / float64(nx)))
		if ny < 2 {
			ny = 2
		}
		pitch := 3 + 4*rng.Float64()
		width := float64(nx-1) * pitch
		height := float64(ny-1) * pitch
		yOff := (rng.Float64() - 0.5) * 0.3 * height
		xs := linspace(x0, x0+width, nx)
		ys := linspace(yOff, yOff+height, ny)
		g.addLattice(xs, ys, depth, condRadius, nil)
		for _, cx := range []float64{xs[0], xs[nx-1]} {
			for _, cy := range []float64{ys[0], ys[ny-1]} {
				g.AddRod(cx, cy, depth, rodLen, rodRadius)
			}
		}
		// Two ties to the previous substation, attached at the quarter and
		// three-quarter rows of each facing edge: both endpoints coincide
		// with lattice nodes, so the mesh merges them and the system is
		// electrically bonded end to end.
		if i > 0 {
			for _, q := range []float64{0.25, 0.75} {
				jp := int(q * float64(len(prevYs)-1))
				jc := int(q * float64(ny-1))
				g.AddConductor(geom.V(prevXMax, prevYs[jp], depth), geom.V(xs[0], ys[jc], depth), condRadius)
			}
		}
		prevXMax = xs[nx-1]
		prevYs = ys
		x0 = xs[nx-1] + 10 + 8*rng.Float64()
	}
	return g
}

// SingleRod builds a grid consisting of one vertical rod — the classical
// configuration with a textbook resistance formula, used for validation.
func SingleRod(x, y, top, length, radius float64) *Grid {
	g := &Grid{Name: "rod"}
	g.AddRod(x, y, top, length, radius)
	return g
}

// HorizontalWire builds a single buried horizontal conductor along x.
func HorizontalWire(x0, y, depth, length, radius float64) *Grid {
	g := &Grid{Name: "wire"}
	g.AddConductor(geom.V(x0, y, depth), geom.V(x0+length, y, depth), radius)
	return g
}

// linspace returns n evenly spaced values from a to b inclusive.
func linspace(a, b float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = a + (b-a)*float64(i)/float64(n-1)
	}
	return out
}

// gradedSpace returns n values from a to b with spacing compressed toward
// both ends by the smooth map t ← t − β·sin(2πt)/(2π): the end spacings
// shrink by the factor (1 − β) while the count and the end points stay
// fixed. β = 0 is linspace; β must be < 1.
//
// Practical grounding meshes are graded this way because the leakage
// density — and with it the touch-voltage risk — concentrates at the grid
// perimeter (see post.ComputeLeakage); the published Barberá plan
// (Fig 5.1) visibly uses unequal spacings.
func gradedSpace(a, b float64, n int, beta float64) []float64 {
	if beta < 0 || beta >= 1 {
		panic(fmt.Sprintf("grid: grading factor %g outside [0, 1)", beta))
	}
	out := make([]float64, n)
	for i := range out {
		t := float64(i) / float64(n-1)
		g := t - beta*math.Sin(2*math.Pi*t)/(2*math.Pi)
		out[i] = a + (b-a)*g
	}
	return out
}

// RectMeshGraded is RectMesh with edge-compressed line spacings (grading
// factor beta ∈ [0, 1)).
func RectMeshGraded(x0, y0, width, height float64, nx, ny int, depth, radius, beta float64) *Grid {
	checkLines("RectMeshGraded", nx, ny)
	g := &Grid{Name: fmt.Sprintf("rect-graded-%dx%d", nx, ny)}
	g.addLattice(gradedSpace(x0, x0+width, nx, beta), gradedSpace(y0, y0+height, ny, beta), depth, radius, nil)
	return g
}

// TriangleMeshGraded is TriangleMesh with edge-compressed spacings. The
// clip keeps lattice nodes with x/legX + y/legY ≤ 1, so the element count
// may differ slightly from the ungraded lattice.
func TriangleMeshGraded(legX, legY float64, nx, ny int, depth, radius, beta float64) *Grid {
	checkLines("TriangleMeshGraded", nx, ny)
	g := &Grid{Name: fmt.Sprintf("triangle-graded-%dx%d", nx, ny)}
	g.addTriangleLattice(legX, legY, gradedSpace(0, legX, nx, beta), gradedSpace(0, legY, ny, beta), depth, radius)
	return g
}
