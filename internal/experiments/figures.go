package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/fsio"
	"earthing/internal/grid"
	"earthing/internal/post"
	"earthing/internal/sched"
	"earthing/internal/soil"
)

// soilModelFunc builds one of the named paper soil models.
type soilModelFunc func() soil.Model

// surfaceMap computes the Figure 5.2/5.4-style raster for a solved result,
// in units of ×10 kV like the paper's contour labels.
func surfaceMap(ctx context.Context, res *core.Result, nx, ny int) (*post.Raster, error) {
	return post.SurfacePotentialCtx(ctx, res.Assembler(), res.Mesh, res.Sigma, res.GPR/10_000,
		post.SurfaceOptions{NX: nx, NY: ny, Margin: 20})
}

// writeFigure emits a raster as CSV, ASCII and contour SVG under dir with
// the given base name; dir == "" writes the ASCII art to w only.
func writeFigure(w io.Writer, dir, base string, r *post.Raster) error {
	if err := post.WriteASCII(w, r); err != nil {
		return err
	}
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	err := fsio.WriteFile(filepath.Join(dir, base+".csv"), func(f io.Writer) error {
		return post.WriteCSV(f, r)
	})
	if err != nil {
		return err
	}
	lines := post.Contours(r, post.EquallySpacedLevels(r, 12))
	return fsio.WriteFile(filepath.Join(dir, base+".svg"), func(f io.Writer) error {
		return post.WriteSVG(f, r, lines)
	})
}

// Fig52 regenerates Figure 5.2: the Barberá earth-surface potential
// distribution (×10 kV) for the uniform and the two-layer soil model.
// Artifacts (CSV + contour SVG) go under dir when non-empty.
func Fig52(ctx context.Context, out io.Writer, q Quality, workers int, dir string, nx, ny int) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	if nx <= 0 {
		nx = 48
	}
	if ny <= 0 {
		ny = 64
	}
	header(w, "Figure 5.2 — Barberá surface potential (×10 kV)")
	for _, c := range []struct {
		name  string
		model soilModelFunc
	}{
		{"uniform", BarberaUniform},
		{"two-layer", BarberaTwoLayer},
	} {
		res, err := AnalyzeBarbera(ctx, c.model(), q, workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n-- %s soil model (Req = %.4f ohm) --\n", c.name, res.Req)
		r, err := surfaceMap(ctx, res, nx, ny)
		if err != nil {
			return err
		}
		if err := writeFigure(w, dir, "fig5.2-"+c.name, r); err != nil {
			return err
		}
	}
	return nil
}

// Fig54 regenerates Figure 5.4: the Balaidos surface potential (×10 kV) for
// soil models A, B and C.
func Fig54(ctx context.Context, out io.Writer, q Quality, workers int, dir string, nx, ny int) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	if nx <= 0 {
		nx = 56
	}
	if ny <= 0 {
		ny = 44
	}
	header(w, "Figure 5.4 — Balaidos surface potential (×10 kV), models A/B/C")
	for _, c := range BalaidosModels() {
		res, err := AnalyzeBalaidos(ctx, c, q, workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n-- model %s (Req = %.4f ohm) --\n", c.Name, res.Req)
		r, err := surfaceMap(ctx, res, nx, ny)
		if err != nil {
			return err
		}
		if err := writeFigure(w, dir, "fig5.4-"+c.Name, r); err != nil {
			return err
		}
	}
	return nil
}

// Fig61Point is one point of the Figure 6.1 speed-up curves.
type Fig61Point struct {
	Loop      bem.LoopStrategy
	Workers   int
	Wall      time.Duration
	Measured  float64
	Predicted float64
}

// RunFig61 measures the Barberá two-layer matrix-generation speed-up for
// outer- and inner-loop parallelization across worker counts, with the
// paper's Dynamic,1 schedule.
func RunFig61(ctx context.Context, q Quality, workers []int) ([]Fig61Point, error) {
	q = q.withDefaults()
	m, err := grid.BarberaMesh()
	if err != nil {
		return nil, err
	}
	model := BarberaTwoLayer()
	seq, err := minDuration(q.Repeats, func() (time.Duration, error) {
		d, _, err := matrixGenTime(ctx, m, model, q.bemOptions(1))
		return d, err
	})
	if err != nil {
		return nil, err
	}
	var pts []Fig61Point
	for _, loop := range []bem.LoopStrategy{bem.OuterLoop, bem.InnerLoop} {
		for _, p := range workers {
			opt := q.bemOptions(p)
			opt.Loop = loop
			opt.Schedule = sched.Schedule{Kind: sched.Dynamic, Chunk: 1}
			var pred float64
			wall, err := minDuration(q.Repeats, func() (time.Duration, error) {
				d, pd, err := matrixGenTime(ctx, m, model, opt)
				pred = pd
				return d, err
			})
			if err != nil {
				return nil, err
			}
			pts = append(pts, Fig61Point{
				Loop: loop, Workers: p, Wall: wall,
				Measured:  float64(seq) / float64(wall),
				Predicted: pred,
			})
		}
	}
	return pts, nil
}

// Fig61 prints the outer-vs-inner speed-up series (paper: outer-loop
// parallelization wins because its granularity is larger, and the gap grows
// with the number of processors).
func Fig61(ctx context.Context, out io.Writer, q Quality, workers []int) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	pts, err := RunFig61(ctx, q, workers)
	if err != nil {
		return err
	}
	header(w, "Figure 6.1 — Barberá two-layer: outer- vs inner-loop speed-up (dynamic,1)")
	fmt.Fprintf(w, "%-8s %8s %14s %10s %10s\n", "loop", "workers", "wall", "measured", "predicted")
	for _, p := range pts {
		fmt.Fprintf(w, "%-8s %8d %14v %10.2f %10.2f\n",
			p.Loop, p.Workers, p.Wall.Round(time.Millisecond), p.Measured, p.Predicted)
	}
	return nil
}

// PlanSVG writes the grid plan (Figures 5.1 / 5.3) as an SVG drawing: the
// horizontal conductors as lines and rods as dots.
func PlanSVG(out io.Writer, g *grid.Grid) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	b := g.Bounds()
	sz := b.Size()
	const scale = 6
	width := sz.X * scale
	height := sz.Y * scale
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.2f %.2f">`+"\n",
		width+20, height+20, width+20, height+20)
	fmt.Fprintln(w, `<rect width="100%" height="100%" fill="white"/>`)
	px := func(x float64) float64 { return 10 + (x-b.Min.X)*scale }
	py := func(y float64) float64 { return 10 + (b.Max.Y-y)*scale }
	for _, c := range g.Conductors {
		if c.Seg.IsVertical(1e-9) {
			fmt.Fprintf(w, `<circle cx="%.2f" cy="%.2f" r="2.5" fill="black"/>`+"\n",
				px(c.Seg.A.X), py(c.Seg.A.Y))
			continue
		}
		fmt.Fprintf(w, `<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black" stroke-width="1"/>`+"\n",
			px(c.Seg.A.X), py(c.Seg.A.Y), px(c.Seg.B.X), py(c.Seg.B.Y))
	}
	fmt.Fprintln(w, "</svg>")
	return nil
}
