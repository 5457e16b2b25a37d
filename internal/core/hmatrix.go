package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"earthing/internal/bem"
	"earthing/internal/faultinject"
	"earthing/internal/hmatrix"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// HMatrixConfig tunes the compressed solver tier (Config.Solver =
// SolverHMatrix). The zero value selects the defaults of hmatrix.Params
// (ε = 1e-6, η = 2, leaf 64; the rank cap is the constant 96) plus a
// 2000-DoF dense fallback threshold.
type HMatrixConfig struct {
	// Eps is the relative block tolerance of the ACA compression. The
	// engineering outputs track it: the differential suite pins |ΔReq|/Req
	// within 10·Eps of the dense reference.
	Eps float64
	// Eta is the admissibility parameter (min diam ≤ η·dist).
	Eta float64
	// LeafSize is the cluster-tree leaf capacity.
	LeafSize int
	// DenseFallbackN gates the graceful degradation of the compressed tier:
	// when the build or the iterative solve fails on a system of order
	// ≤ DenseFallbackN, the engine re-runs the scenario through the dense
	// PCG path and appends a Result warning instead of failing the analysis.
	// 0 selects the default (2000); negative disables the fallback, so every
	// compressed failure surfaces as a typed error — which is what the chaos
	// suites assert.
	DenseFallbackN int
}

// defaultDenseFallbackN bounds the systems worth re-running dense after a
// compressed failure: at 2000 DoF the dense path costs a few seconds, above
// it the quadratic assembly defeats the point of the compressed tier.
const defaultDenseFallbackN = 2000

// hmatrixFallbackAllowed reports whether a failed compressed run of order n
// may degrade to the dense path.
func hmatrixFallbackAllowed(cfg Config, n int) bool {
	limit := cfg.HMatrix.DenseFallbackN
	if limit == 0 {
		limit = defaultDenseFallbackN
	}
	if limit < 0 {
		return false
	}
	return n <= limit
}

// hmatrixParams maps the engine config onto the hmatrix build parameters.
func hmatrixParams(cfg Config) hmatrix.Params {
	return hmatrix.Params{
		Eps:      cfg.HMatrix.Eps,
		Eta:      cfg.HMatrix.Eta,
		LeafSize: cfg.HMatrix.LeafSize,
		Workers:  cfg.BEM.Workers,
		Schedule: cfg.BEM.Schedule,
	}
}

// runHMatrix executes the compressed matrix-generation and solve stages into
// res: cluster/block-tree construction with ACA far-field compression
// replaces the dense assembly, and a near-field-preconditioned CG on the
// implicit operator replaces the packed solve. Like the dense solve stage,
// the CG runs to completion once started; ctx is observed between stages and
// between blocks of the build.
func runHMatrix(ctx context.Context, res *Result, asm *bem.Assembler, cfg Config) error {
	start := time.Now()
	h, err := hmatrix.Build(ctx, asm, hmatrixParams(cfg))
	if err != nil {
		return fmt.Errorf("core: matrix generation: %w", err)
	}
	res.HMatrix = h.Stats()
	res.Timings.MatrixGen = time.Since(start)

	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: solve: %w", err)
	}
	start = time.Now()
	nu := bem.RHS(res.Mesh)
	faultinject.Fire(faultinject.Solve, h.Order(), nu)
	if cfg.HealthCheck {
		for i, v := range nu {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return &HealthError{Reason: HealthNonFiniteSystem, Detail: fmt.Sprintf("load vector entry %d = %g", i, v)}
			}
		}
	}
	sr, err := h.Solve(nu, hmatrix.SolveOptions{Tol: cgTol})
	if err != nil {
		return fmt.Errorf("core: solve: %w", err)
	}
	if cfg.HealthCheck {
		for i, v := range sr.X {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return &HealthError{Reason: HealthNonFiniteSolution, Detail: fmt.Sprintf("sigma[%d] = %g", i, v)}
			}
		}
	}
	res.Sigma = sr.X
	res.CG = linalg.CGResult{X: sr.X, Iterations: sr.Iterations, Residual: sr.Residual, Converged: true}
	res.Timings.Solve = time.Since(start)
	return nil
}

// analyzeHMatrix runs the compressed stages and the results stage on a
// prebuilt assembler. When the compressed stages fail on a system small
// enough to afford the dense path (HMatrixConfig.DenseFallbackN), it
// degrades to AnalyzeAssembler under PCG with a Result warning. Health-check
// errors never degrade: a poisoned load vector would poison the dense run
// identically.
func analyzeHMatrix(ctx context.Context, asm *bem.Assembler, model soil.Model, warnings []string, cfg Config) (*Result, error) {
	res := &Result{Mesh: asm.Mesh(), Warnings: warnings, asm: asm}
	hErr := runHMatrix(ctx, res, asm, cfg)
	if hErr == nil {
		if err := finishResults(res, model, cfg.GPR); err != nil {
			return nil, err
		}
		return res, nil
	}
	var health *HealthError
	if errors.As(hErr, &health) || !hmatrixFallbackAllowed(cfg, res.Mesh.NumDoF) || ctx.Err() != nil {
		return nil, hErr
	}
	warnings = append(warnings[:len(warnings):len(warnings)], fmt.Sprintf(
		"core: hmatrix solver failed (%v); fell back to dense pcg", hErr))
	cfg.Solver = PCG
	return AnalyzeAssembler(ctx, asm, model, warnings, cfg)
}
