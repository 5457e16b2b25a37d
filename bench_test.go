// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark corresponds to one table or figure (see DESIGN.md §5 for
// the experiment index and EXPERIMENTS.md for the recorded comparison):
//
//	BenchmarkBarberaSummary        — §5.1 headline numbers
//	BenchmarkTable51…              — Table 5.1 (Balaidos soil models)
//	BenchmarkFig52…                — Figure 5.2 (Barberá surface potential)
//	BenchmarkFig54…                — Figure 5.4 (Balaidos surface potential)
//	BenchmarkTable61Stages         — Table 6.1 (pipeline stage times)
//	BenchmarkTable62Schedules      — Table 6.2 (schedule × workers)
//	BenchmarkTable63…              — Table 6.3 (Balaidos parallel runs)
//	BenchmarkFig61OuterVsInner     — Figure 6.1 (loop strategy)
//	BenchmarkAblation…             — DESIGN.md §6 ablations
//
// Custom metrics: Req_ohm is the computed equivalent resistance,
// predicted_speedup the ideal-machine load-balance simulation (the
// host-independent analog of the paper's measured speed-ups; this container
// may have a single physical core).
//
// The benchmarks run at a reduced kernel-series tolerance (1e-5) so the
// whole suite stays in the minutes range; cmd/paperbench regenerates the
// tables at full fidelity.
package earthing_test

import (
	"context"
	"fmt"
	"testing"

	"earthing"
	"earthing/internal/bem"
	"earthing/internal/experiments"
	"earthing/internal/fdm"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/post"
	"earthing/internal/sched"
)

// benchQ is the fidelity used by the benchmark suite.
var benchQ = experiments.Quality{SeriesTol: 1e-5, Repeats: 1, GaussOrder: 4}

// BenchmarkBarberaSummary regenerates the §5.1 text numbers: the Barberá
// grid at 10 kV GPR under the uniform and two-layer soil models.
func BenchmarkBarberaSummary(b *testing.B) {
	cases := []struct {
		name  string
		model earthing.SoilModel
	}{
		{"uniform", experiments.BarberaUniform()},
		{"two-layer", experiments.BarberaTwoLayer()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var req float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.AnalyzeBarbera(context.Background(), c.model, benchQ, 0)
				if err != nil {
					b.Fatal(err)
				}
				req = res.Req
			}
			b.ReportMetric(req, "Req_ohm")
		})
	}
}

// BenchmarkTable51BalaidosSoilModels regenerates Table 5.1: the Balaidos
// equivalent resistance and fault current per soil model A/B/C.
func BenchmarkTable51BalaidosSoilModels(b *testing.B) {
	for _, c := range experiments.BalaidosModels() {
		b.Run(c.Name, func(b *testing.B) {
			var req float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.AnalyzeBalaidos(context.Background(), c, benchQ, 0)
				if err != nil {
					b.Fatal(err)
				}
				req = res.Req
			}
			b.ReportMetric(req, "Req_ohm")
		})
	}
}

// BenchmarkFig52SurfacePotential regenerates the Figure 5.2 rasters: the
// Barberá earth-surface potential under both soil models. The benchmarked
// cost is the O(M·p)-per-point potential evaluation of §4.3.
func BenchmarkFig52SurfacePotential(b *testing.B) {
	for _, c := range []struct {
		name  string
		model earthing.SoilModel
	}{
		{"uniform", experiments.BarberaUniform()},
		{"two-layer", experiments.BarberaTwoLayer()},
	} {
		res, err := experiments.AnalyzeBarbera(context.Background(), c.model, benchQ, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := post.SurfacePotentialCtx(context.Background(), res.Assembler(), res.Mesh, res.Sigma, res.GPR,
					post.SurfaceOptions{NX: 24, NY: 32, Margin: 20}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig54SurfacePotential regenerates the Figure 5.4 rasters: the
// Balaidos surface potential for soil models A/B/C.
func BenchmarkFig54SurfacePotential(b *testing.B) {
	for _, c := range experiments.BalaidosModels() {
		res, err := experiments.AnalyzeBalaidos(context.Background(), c, benchQ, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := post.SurfacePotentialCtx(context.Background(), res.Assembler(), res.Mesh, res.Sigma, res.GPR,
					post.SurfaceOptions{NX: 28, NY: 22, Margin: 20}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable61Stages regenerates Table 6.1: the sequential Barberá
// two-layer pipeline, reporting the per-stage share of the matrix
// generation stage as a metric.
func BenchmarkTable61Stages(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable61(context.Background(), benchQ)
		if err != nil {
			b.Fatal(err)
		}
		share = res.MatrixShare
	}
	b.ReportMetric(100*share, "matrixgen_%")
}

// BenchmarkTable62Schedules regenerates the distinctive rows of Table 6.2:
// the Barberá two-layer matrix generation under each schedule kind, with
// the ideal-machine predicted speed-up as a metric.
func BenchmarkTable62Schedules(b *testing.B) {
	m, err := grid.BarberaMesh()
	if err != nil {
		b.Fatal(err)
	}
	model := experiments.BarberaTwoLayer()
	for _, label := range []string{"static", "static,16", "static,1", "dynamic,64", "dynamic,1", "guided,1"} {
		s, err := sched.ParseSchedule(label)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range []int{4, 8} {
			b.Run(fmt.Sprintf("%s/P=%d", label, p), func(b *testing.B) {
				opt := benchQ
				bo := bem.Options{Workers: p, Schedule: s, SeriesTol: opt.SeriesTol}
				for i := 0; i < b.N; i++ {
					a, err := bem.New(m, model, bo)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := a.MatrixCtx(context.Background()); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(experiments.PredictLoopSpeedup(len(m.Elements), bo), "predicted_speedup")
			})
		}
	}
}

// BenchmarkTable63BalaidosParallel regenerates Table 6.3: Balaidos matrix
// generation per soil model and worker count.
func BenchmarkTable63BalaidosParallel(b *testing.B) {
	for _, c := range experiments.BalaidosModels() {
		res, err := experiments.AnalyzeBalaidos(context.Background(), c, benchQ, 1)
		if err != nil {
			b.Fatal(err)
		}
		mesh := res.Mesh
		for _, p := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/P=%d", c.Name, p), func(b *testing.B) {
				bo := bem.Options{Workers: p, SeriesTol: benchQ.SeriesTol}
				for i := 0; i < b.N; i++ {
					a, err := bem.New(mesh, c.Model, bo)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := a.MatrixCtx(context.Background()); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(experiments.PredictLoopSpeedup(len(mesh.Elements), bo), "predicted_speedup")
			})
		}
	}
}

// BenchmarkFig61OuterVsInner regenerates Figure 6.1: outer- vs inner-loop
// parallelization of the Barberá two-layer matrix generation (dynamic,1).
func BenchmarkFig61OuterVsInner(b *testing.B) {
	m, err := grid.BarberaMesh()
	if err != nil {
		b.Fatal(err)
	}
	model := experiments.BarberaTwoLayer()
	for _, loop := range []bem.LoopStrategy{bem.OuterLoop, bem.InnerLoop} {
		for _, p := range []int{4, 16} {
			b.Run(fmt.Sprintf("%v/P=%d", loop, p), func(b *testing.B) {
				bo := bem.Options{
					Workers:   p,
					Loop:      loop,
					Schedule:  sched.Schedule{Kind: sched.Dynamic, Chunk: 1},
					SeriesTol: benchQ.SeriesTol,
				}
				for i := 0; i < b.N; i++ {
					a, err := bem.New(m, model, bo)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := a.MatrixCtx(context.Background()); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(experiments.PredictLoopSpeedup(len(m.Elements), bo), "predicted_speedup")
			})
		}
	}
}

// BenchmarkAblationSeriesTol sweeps the kernel-series tolerance (§4.3's
// accuracy/cost trade-off) on the Balaidos model C analysis.
func BenchmarkAblationSeriesTol(b *testing.B) {
	c := experiments.BalaidosModels()[2]
	for _, tol := range []float64{1e-3, 1e-5, 1e-7} {
		b.Run(fmt.Sprintf("tol=%.0e", tol), func(b *testing.B) {
			var req float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.AnalyzeBalaidos(context.Background(), c,
					experiments.Quality{SeriesTol: tol, Repeats: 1}, 0)
				if err != nil {
					b.Fatal(err)
				}
				req = res.Req
			}
			b.ReportMetric(req, "Req_ohm")
		})
	}
}

// BenchmarkBaselineFDM runs the §3 baseline head-to-head: the same rod
// problem by BEM and by the finite-difference volume discretization.
func BenchmarkBaselineFDM(b *testing.B) {
	model := experiments.BarberaUniform()
	rod := grid.SingleRod(0, 0, 0, 3, 0.0075)
	b.Run("BEM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := grid.Discretize(rod, grid.Linear, 0.2)
			if err != nil {
				b.Fatal(err)
			}
			a, err := bem.New(m, model, bem.Options{})
			if err != nil {
				b.Fatal(err)
			}
			r, _, err := a.MatrixCtx(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := linalg.SolveCG(r, bem.RHS(m), linalg.CGOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FD", func(b *testing.B) {
		box := fdm.Box{X0: -12, Y0: -12, X1: 12, Y1: 12, Depth: 14, H: 0.5}
		for i := 0; i < b.N; i++ {
			s, err := fdm.New(rod, model, box)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Solve(1e-7, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSolver compares the direct Cholesky solve against the
// paper-recommended diagonal preconditioned CG on the Barberá system (§4.3).
func BenchmarkAblationSolver(b *testing.B) {
	m, err := grid.BarberaMesh()
	if err != nil {
		b.Fatal(err)
	}
	a, err := bem.New(m, experiments.BarberaTwoLayer(), bem.Options{SeriesTol: benchQ.SeriesTol})
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := a.MatrixCtx(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	nu := bem.RHS(m)
	b.Run("cholesky", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch, err := linalg.NewCholeskyBlocked(r, linalg.FactorOpts{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ch.Solve(nu); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pcg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := linalg.SolveCG(r, nu, linalg.CGOptions{Tol: 1e-10}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
