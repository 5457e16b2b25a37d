package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/grid"
	"earthing/internal/sched"
	"earthing/internal/soil"
)

// BarberaResult carries the §5.1 headline quantities.
type BarberaResult struct {
	UniformReq, UniformCurrent   float64 // Ω, A
	TwoLayerReq, TwoLayerCurrent float64
}

// RunBarberaSummary computes the §5.1 text numbers: Req and IΓ of the
// Barberá grid at 10 kV GPR for the uniform and two-layer soil models
// (paper: 0.3128 Ω / 31.97 kA and 0.3704 Ω / 26.99 kA).
func RunBarberaSummary(ctx context.Context, q Quality, workers int) (BarberaResult, error) {
	var out BarberaResult
	ru, err := AnalyzeBarbera(ctx, BarberaUniform(), q, workers)
	if err != nil {
		return out, err
	}
	rt, err := AnalyzeBarbera(ctx, BarberaTwoLayer(), q, workers)
	if err != nil {
		return out, err
	}
	out.UniformReq, out.UniformCurrent = ru.Req, ru.Current
	out.TwoLayerReq, out.TwoLayerCurrent = rt.Req, rt.Current
	return out, nil
}

// BarberaSummary prints the §5.1 comparison.
func BarberaSummary(ctx context.Context, out io.Writer, q Quality, workers int) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	res, err := RunBarberaSummary(ctx, q, workers)
	if err != nil {
		return err
	}
	header(w, "Barberá grounding system (§5.1), GPR = 10 kV")
	fmt.Fprintf(w, "%-20s %18s %18s\n", "Soil Model", "Req (ohm)", "Current (kA)")
	fmt.Fprintf(w, "%-20s %12.4f (paper 0.3128) %8.2f (paper 31.97)\n",
		"uniform", res.UniformReq, res.UniformCurrent/1000)
	fmt.Fprintf(w, "%-20s %12.4f (paper 0.3704) %8.2f (paper 26.99)\n",
		"two-layer", res.TwoLayerReq, res.TwoLayerCurrent/1000)
	return nil
}

// Table51Row is one row of Table 5.1.
type Table51Row struct {
	Model     string
	Req       float64 // Ω
	Current   float64 // A
	PaperReq  float64
	PaperCurr float64 // A
}

// RunTable51 computes Table 5.1: the Balaidos equivalent resistance and
// total current for soil models A, B and C.
func RunTable51(ctx context.Context, q Quality, workers int) ([]Table51Row, error) {
	paper := map[string][2]float64{
		"A": {0.3366, 29_710},
		"B": {0.3522, 28_390},
		"C": {0.4860, 20_580},
	}
	var rows []Table51Row
	for _, c := range BalaidosModels() {
		res, err := AnalyzeBalaidos(ctx, c, q, workers)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", c.Name, err)
		}
		p := paper[c.Name]
		rows = append(rows, Table51Row{
			Model: c.Name, Req: res.Req, Current: res.Current,
			PaperReq: p[0], PaperCurr: p[1],
		})
	}
	return rows, nil
}

// Table51 prints Table 5.1 with the paper's values alongside.
func Table51(ctx context.Context, out io.Writer, q Quality, workers int) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	rows, err := RunTable51(ctx, q, workers)
	if err != nil {
		return err
	}
	header(w, "Table 5.1 — Balaidos: Req and total current per soil model")
	fmt.Fprintf(w, "%-6s %14s %12s %16s %12s\n",
		"Model", "Req (ohm)", "paper", "Current (kA)", "paper")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %14.4f %12.4f %16.2f %12.2f\n",
			r.Model, r.Req, r.PaperReq, r.Current/1000, r.PaperCurr/1000)
	}
	return nil
}

// Table61Result is the per-stage timing breakdown of Table 6.1.
type Table61Result struct {
	Timings core.StageTimings
	// MatrixShare is MatrixGen / Total.
	MatrixShare float64
}

// RunTable61 measures the sequential per-stage times of the Barberá
// two-layer analysis, including the data-input stage by round-tripping the
// grid through its text format.
func RunTable61(ctx context.Context, q Quality) (Table61Result, error) {
	q = q.withDefaults()
	var out Table61Result
	// Serialize the Barberá grid so the input stage has real work to do.
	pr, pw := io.Pipe()
	//lint:ignore goleak bounded by the pipe: AnalyzeReaderCtx drains pr, so CloseWithError returns and the goroutine exits
	go func() {
		//lint:ignore errdrop io.PipeWriter.CloseWithError documents that it always returns nil
		pw.CloseWithError(grid.Write(pw, grid.Barbera()))
	}()
	res, err := core.AnalyzeReaderCtx(ctx, pr, BarberaTwoLayer(), core.Config{
		GPR: 10_000,
		BEM: func() bem.Options { o := q.bemOptions(1); return o }(),
	})
	if err != nil {
		return out, err
	}
	out.Timings = res.Timings
	if t := res.Timings.Total(); t > 0 {
		out.MatrixShare = float64(res.Timings.MatrixGen) / float64(t)
	}
	return out, nil
}

// Table61 prints the stage breakdown (paper: matrix generation 1723 s of a
// 1724 s total on one O2000 processor — 99.9 % of the work).
func Table61(ctx context.Context, out io.Writer, q Quality) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	res, err := RunTable61(ctx, q)
	if err != nil {
		return err
	}
	header(w, "Table 6.1 — Barberá two-layer: sequential time per pipeline stage")
	fmt.Fprintf(w, "%-24s %14s\n", "Process", "wall time")
	fmt.Fprintf(w, "%-24s %14v\n", "Data Input", res.Timings.Input)
	fmt.Fprintf(w, "%-24s %14v\n", "Data Preprocessing", res.Timings.Preprocess)
	fmt.Fprintf(w, "%-24s %14v\n", "Matrix Generation", res.Timings.MatrixGen)
	fmt.Fprintf(w, "%-24s %14v\n", "Linear System Solving", res.Timings.Solve)
	fmt.Fprintf(w, "%-24s %14v\n", "Results Storage", res.Timings.Results)
	fmt.Fprintf(w, "matrix generation share: %.2f%% (paper: 99.9%%)\n", 100*res.MatrixShare)
	return nil
}

// Table62Schedules lists the schedule rows of Table 6.2 in paper order.
func Table62Schedules() []sched.Schedule {
	return []sched.Schedule{
		{Kind: sched.Static, Chunk: 0},
		{Kind: sched.Static, Chunk: 64},
		{Kind: sched.Static, Chunk: 16},
		{Kind: sched.Static, Chunk: 4},
		{Kind: sched.Static, Chunk: 1},
		{Kind: sched.Dynamic, Chunk: 64},
		{Kind: sched.Dynamic, Chunk: 16},
		{Kind: sched.Dynamic, Chunk: 4},
		{Kind: sched.Dynamic, Chunk: 1},
		{Kind: sched.Guided, Chunk: 64},
		{Kind: sched.Guided, Chunk: 16},
		{Kind: sched.Guided, Chunk: 4},
		{Kind: sched.Guided, Chunk: 1},
	}
}

// SpeedupCell is one measurement of a schedule × worker-count cell.
type SpeedupCell struct {
	Schedule  sched.Schedule
	Workers   int
	Wall      time.Duration
	Measured  float64 // T_seq / Wall
	Predicted float64 // Σ busy / max busy (load-balance bound)
}

// matrixGenTime assembles the given mesh/model once and reports the wall
// time of the matrix-generation stage plus the simulated ideal-machine
// speed-up of its (loop, schedule, workers) configuration.
func matrixGenTime(ctx context.Context, m *grid.Mesh, model soil.Model, opt bem.Options) (time.Duration, float64, error) {
	a, err := bem.New(m, model, opt)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if _, _, err := a.MatrixCtx(ctx); err != nil {
		return 0, 0, err
	}
	wall := time.Since(start)
	return wall, PredictLoopSpeedup(len(m.Elements), opt), nil
}

// PredictLoopSpeedup simulates the matrix-generation loop of an M-element
// mesh under the options' loop strategy, schedule and worker count on an
// ideal machine (one core per worker, free hand-offs): the host-independent
// load-balance prediction reported alongside measured wall times.
func PredictLoopSpeedup(m int, opt bem.Options) float64 {
	p := opt.Workers
	if p <= 0 {
		p = 1
	}
	s := opt.Schedule
	if s.IsZero() {
		s = sched.Schedule{Kind: sched.Dynamic, Chunk: 1}
	}
	if opt.Loop == bem.OuterLoop {
		return sched.PredictSpeedup(sched.TriangleWork(m), p, s)
	}
	// Inner loop: the rows of each column are shared; a barrier separates
	// columns, so the total makespan is the sum of per-column makespans.
	var total, makespan int64
	unit := make([]int64, m)
	for i := range unit {
		unit[i] = 1
	}
	for beta := m - 1; beta >= 0; beta-- {
		ms, _ := sched.Simulate(unit[:beta+1], p, s)
		makespan += ms
		total += int64(beta + 1)
	}
	if makespan == 0 {
		return 1
	}
	return float64(total) / float64(makespan)
}

// RunTable62 measures the Barberá two-layer matrix-generation speed-up for
// every schedule row of Table 6.2 across the given worker counts (the paper
// uses 1, 2, 4, 8 O2000 processors with outer-loop parallelization).
func RunTable62(ctx context.Context, q Quality, workers []int) ([]SpeedupCell, error) {
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

	var cells []SpeedupCell
	for _, s := range Table62Schedules() {
		for _, p := range workers {
			opt := q.bemOptions(p)
			opt.Schedule = s
			var pred float64
			wall, err := minDuration(q.Repeats, func() (time.Duration, error) {
				d, pd, err := matrixGenTime(ctx, m, model, opt)
				pred = pd
				return d, err
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, SpeedupCell{
				Schedule: s, Workers: p, Wall: wall,
				Measured:  float64(seq) / float64(wall),
				Predicted: pred,
			})
		}
	}
	return cells, nil
}

// Table62 prints the schedule × processors speed-up table.
func Table62(ctx context.Context, out io.Writer, q Quality, workers []int) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	cells, err := RunTable62(ctx, q, workers)
	if err != nil {
		return err
	}
	header(w, "Table 6.2 — Barberá two-layer: speed-up per schedule and worker count (outer loop)")
	fmt.Fprintf(w, "%-12s", "Schedule")
	for _, p := range workers {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("P=%d", p))
	}
	fmt.Fprintf(w, "    (predicted = load-balance bound; measured in parentheses)\n")
	perSched := map[string][]SpeedupCell{}
	for _, c := range cells {
		perSched[c.Schedule.String()] = append(perSched[c.Schedule.String()], c)
	}
	for _, s := range Table62Schedules() {
		fmt.Fprintf(w, "%-12s", s)
		for _, c := range perSched[s.String()] {
			fmt.Fprintf(w, " %8.2f", c.Predicted)
		}
		fmt.Fprint(w, "   (")
		for i, c := range perSched[s.String()] {
			if i > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprintf(w, "%.2f", c.Measured)
		}
		fmt.Fprintln(w, ")")
	}
	return nil
}

// Table63Row is one soil model's row of Table 6.3.
type Table63Row struct {
	Model string
	Cells []SpeedupCell // one per worker count; Wall is the matrix-gen time
}

// RunTable63 measures the Balaidos matrix-generation times and speed-ups
// for soil models A, B and C across worker counts (paper Table 6.3; model A
// is sequential-only there because it is already real-time).
func RunTable63(ctx context.Context, q Quality, workers []int) ([]Table63Row, error) {
	q = q.withDefaults()
	var rows []Table63Row
	for _, c := range BalaidosModels() {
		// Build the paper-accurate mesh through the engine preprocessing.
		res, err := AnalyzeBalaidos(ctx, c, q, 1)
		if err != nil {
			return nil, err
		}
		mesh := res.Mesh
		row := Table63Row{Model: c.Name}
		var seq time.Duration
		for _, p := range workers {
			opt := q.bemOptions(p)
			var pred float64
			wall, err := minDuration(q.Repeats, func() (time.Duration, error) {
				d, pd, err := matrixGenTime(ctx, mesh, c.Model, opt)
				pred = pd
				return d, err
			})
			if err != nil {
				return nil, err
			}
			if p == 1 {
				seq = wall
			}
			cell := SpeedupCell{Workers: p, Wall: wall, Predicted: pred}
			if seq > 0 {
				cell.Measured = float64(seq) / float64(wall)
			}
			row.Cells = append(row.Cells, cell)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table63 prints the Balaidos CPU-time/speed-up table.
func Table63(ctx context.Context, out io.Writer, q Quality, workers []int) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	rows, err := RunTable63(ctx, q, workers)
	if err != nil {
		return err
	}
	header(w, "Table 6.3 — Balaidos: matrix-generation time and speed-up per soil model")
	fmt.Fprintf(w, "%-6s", "Model")
	for _, p := range workers {
		fmt.Fprintf(w, " %22s", fmt.Sprintf("P=%d", p))
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s", r.Model)
		for _, c := range r.Cells {
			fmt.Fprintf(w, " %12v (%5.2fx)", c.Wall.Round(time.Millisecond), c.Predicted)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(speed-up in parentheses is the load-balance prediction; paper model C is slowest\n because rods straddle the interface and cross-layer kernels converge slower)")
	return nil
}
