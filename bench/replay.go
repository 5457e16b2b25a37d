package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"earthing"
	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/hmatrix"
	"earthing/internal/linalg"
	"earthing/internal/post"
	"earthing/internal/server"
	"earthing/internal/store"
)

// replayInput is one of a workload's own scenarios, replayed through the
// exported function of every layer by a traced run.
type replayInput struct {
	grid  *earthing.Grid
	model earthing.SoilModel
	cfg   earthing.Config
	gpr   float64
}

// scenarioInput is the replay input for a groundd scenario with a Rect grid.
func scenarioInput(sc server.Scenario, rodElements int) (replayInput, error) {
	model, err := sc.Soil.Build()
	if err != nil {
		return replayInput{}, err
	}
	return replayInput{grid: rectGrid(sc.Grid.Rect), model: model, cfg: grounddConfig(rodElements), gpr: sc.GPR}, nil
}

// replayLayers times each layer from outside: every call into a layer's
// exported function sits in its own span under one span per input, in the
// order groundd's pipeline runs them. It returns the per-layer metrics,
// averaged per input. The H-matrix and post-processing layers are replayed
// on every workload's inputs, so each per-layer metric exists for every
// workload and reads as "this layer's cost on these inputs".
func replayLayers(ctx context.Context, ins []replayInput, dir string, tr *tracer) (map[string]float64, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("no replay inputs")
	}
	var (
		dof, pairs, busyFrac, predicted, matrixS   float64
		cgIters, denseBlocks, lowRank, rank, hmMiB float64
		points, rasterS                            float64
		frames                                     [][]byte
	)
	first := len(tr.snapshot()) // spans before the replay belong to the traced pass
	for k, in := range ins {
		op := -1 - k
		root := tr.begin("replay", op, 0)
		var (
			mesh   *earthing.Mesh
			asm    *bem.Assembler
			sys    *linalg.SymMatrix
			chol   *linalg.Cholesky
			sigma  []float64
			h      *hmatrix.HMatrix
			raster *earthing.Raster
			frame  []byte
			rec    store.Record
			err    error
		)
		nu := func() []float64 { return bem.RHS(mesh) }
		steps := []struct {
			name string
			f    func()
		}{
			{"grid.mesh", func() { mesh, _, err = core.BuildMesh(in.grid, in.model, in.cfg) }},
			{"bem.setup", func() { asm, err = bem.New(mesh, in.model, in.cfg.BEM) }},
			{"bem.matrix", func() { sys, _, err = asm.MatrixCtx(ctx) }},
			{"linalg.factor", func() { chol, err = linalg.NewCholeskyParallel(sys, in.cfg.BEM.Workers) }},
			{"linalg.solve", func() { sigma, err = chol.Solve(nu()) }},
			{"hmatrix.build", func() {
				h, err = hmatrix.Build(ctx, asm, hmatrix.Params{Eps: 1e-6, Eta: 2, Workers: in.cfg.BEM.Workers})
			}},
			{"hmatrix.solve", func() {
				var sr hmatrix.SolveResult
				if sr, err = h.Solve(nu(), hmatrix.SolveOptions{}); err == nil {
					cgIters += float64(sr.Iterations)
				}
			}},
			{"post.voltages", func() {
				_, err = post.ComputeVoltagesCtx(ctx, asm, mesh, sigma, in.gpr, 2, post.SurfaceOptions{Workers: in.cfg.BEM.Workers})
			}},
			{"post.raster", func() {
				raster, err = post.SurfacePotentialCtx(ctx, asm, mesh, sigma, in.gpr, post.SurfaceOptions{NX: 32, NY: 32, Workers: in.cfg.BEM.Workers})
			}},
			{"store.encode", func() { frame, err = store.Encode(nil, store.Record{Key: fmt.Sprintf("replay-%d", k), Sigma: sigma}) }},
			{"store.decode", func() { rec, _, err = store.Decode(frame) }},
			{"store.rehydrate", func() { _, err = core.Rehydrate(in.grid, in.model, rec.Sigma, in.cfg) }},
			{"server.encode", func() { err = encodeResponses(in.gpr, sigma, mesh, raster) }},
		}
		for _, s := range steps {
			d := tr.timed(s.name, op, root, s.f)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			switch s.name {
			case "bem.matrix":
				matrixS += d.Seconds()
				pairs += float64(asm.NumPairs())
				predicted += asm.PredictedSpeedup()
				// WorkerBusy has a slot per worker plus one for the loop's
				// coordinator, which may also take iterations.
				var busy time.Duration
				for _, b := range asm.WorkerBusy() {
					busy += b
				}
				busyFrac += busy.Seconds() / (d.Seconds() * float64(max(1, len(asm.WorkerBusy())-1)))
			case "hmatrix.build":
				st := h.Stats()
				denseBlocks += float64(st.DenseBlocks)
				lowRank += float64(st.LowRank)
				rank += st.AvgRank
				hmMiB += float64(st.Bytes) / (1 << 20)
			case "post.raster":
				points += float64(len(raster.V))
				rasterS += d.Seconds()
			}
		}
		dof += float64(mesh.NumDoF)
		frames = append(frames, frame)
		tr.end(root, "")
	}

	records, err := replayStore(dir, frames, tr)
	if err != nil {
		return nil, err
	}
	n := float64(len(ins))
	out := map[string]float64{
		"grid.dof":                dof / n,
		"bem.pairs":               pairs / n,
		"bem.pairs_per_s":         pairs / matrixS,
		"bem.worker_busy_frac":    busyFrac / n,
		"bem.predicted_speedup":   predicted / n,
		"hmatrix.cg_iterations":   cgIters / n,
		"hmatrix.dense_blocks":    denseBlocks / n,
		"hmatrix.low_rank_blocks": lowRank / n,
		"hmatrix.avg_rank":        rank / n,
		"hmatrix.bytes_mib":       hmMiB / n,
		"post.points_per_s":       points / rasterS,
		"store.records":           float64(records),
	}
	self := selfByName(tr.snapshot()[first:])
	perInput := func(name string, unit time.Duration) float64 {
		return float64(self[name]) / float64(unit) / n
	}
	for _, name := range []string{"grid.mesh", "bem.setup", "bem.matrix", "linalg.factor", "linalg.solve",
		"hmatrix.build", "hmatrix.solve", "post.voltages", "post.raster", "store.rehydrate"} {
		out[name+"_ms"] = perInput(name, time.Millisecond)
	}
	for _, name := range []string{"store.encode", "store.decode", "server.encode"} {
		out[name+"_us"] = perInput(name, time.Microsecond)
	}
	out["store.replay_ms"] = float64(self["store.replay"]) / float64(time.Millisecond)
	return out, nil
}

// encodeResponses marshals the bodies groundd would send for the input: a
// /v1/solve answer and a 32 × 32 /v1/raster answer.
func encodeResponses(gpr float64, sigma []float64, mesh *earthing.Mesh, r *earthing.Raster) error {
	req := 1 / bem.TotalCurrent(mesh, sigma)
	if _, err := json.Marshal(server.SolveResponse{
		Key: "replay", GPR: gpr, ReqOhms: req, CurrentAmps: gpr / req,
		Elements: len(mesh.Elements), DoF: mesh.NumDoF,
	}); err != nil {
		return err
	}
	_, err := json.Marshal(server.RasterResponse{
		Key: "replay", Kind: "potential", GPR: gpr,
		X0: r.X0, Y0: r.Y0, DX: r.DX, DY: r.DY, NX: r.NX, NY: r.NY, V: r.V,
	})
	return err
}

// replayStore appends the replayed densities to a fresh store, closes it and
// times the replay a restarting groundd performs. It returns the record
// count the replay indexed.
func replayStore(dir string, frames [][]byte, tr *tracer) (int, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, err
	}
	for _, f := range frames {
		rec, _, err := store.Decode(f)
		if err == nil {
			err = st.Append(rec)
		}
		if err != nil {
			//lint:ignore errdrop the append failure is the error reported
			st.Close()
			return 0, err
		}
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	if st, err = store.Open(dir, store.Options{}); err != nil {
		return 0, err
	}
	tr.timed("store.replay", -1, 0, func() { err = st.Replay() })
	n := st.Len()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return n, err
}
