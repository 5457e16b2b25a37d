package hmatrix

import (
	"fmt"

	"earthing/internal/linalg"
)

// SolveOptions configures the compressed iterative solve. The zero value
// selects the defaults: near-field block-Cholesky preconditioning, relative
// residual 1e-10 and a 10·n iteration cap (matching the dense CG defaults).
type SolveOptions struct {
	Tol     float64
	MaxIter int
	// Jacobi forces the plain diagonal preconditioner instead of the
	// near-field block factorization.
	Jacobi bool
}

// SolveResult reports a converged compressed solve.
type SolveResult struct {
	X          []float64
	Iterations int
	Residual   float64
	// Preconditioner names the preconditioner actually used ("nearfield"
	// or "jacobi" — the latter also when the block factorization failed and
	// the solve degraded).
	Preconditioner string
}

// Solve runs preconditioned conjugate gradients on the compressed system
// H·x = b. Like the dense solve stage of the core pipeline, it runs to
// completion once started (no mid-solve cancellation): a solve is bounded by
// MaxIter operator applications, each of which is a parallel matvec that
// joins its workers before returning. Non-convergence and recurrence
// breakdowns return a typed *SolveError (wrapping ErrCGStalled or
// linalg.ErrCGBreakdown) rather than a silently inaccurate solution.
func (h *HMatrix) Solve(b []float64, opt SolveOptions) (SolveResult, error) {
	var pre linalg.Preconditioner
	name := "nearfield"
	if !opt.Jacobi {
		if nf, err := h.nearFieldPreconditioner(); err == nil {
			pre = nf
		}
	}
	if pre == nil {
		jp, err := linalg.NewJacobiPreconditioner(h.Diag())
		if err != nil {
			return SolveResult{}, &SolveError{Err: err}
		}
		pre = jp
		name = "jacobi"
	}
	res, err := linalg.SolveCGOp(h, pre, b, linalg.CGOptions{Tol: opt.Tol, MaxIter: opt.MaxIter})
	if err != nil {
		return SolveResult{}, &SolveError{Iterations: res.Iterations, Residual: res.Residual, Err: err}
	}
	if !res.Converged {
		return SolveResult{}, &SolveError{
			Iterations: res.Iterations,
			Residual:   res.Residual,
			Err:        fmt.Errorf("%w: residual %.3g after %d iterations", ErrCGStalled, res.Residual, res.Iterations),
		}
	}
	return SolveResult{
		X:              res.X,
		Iterations:     res.Iterations,
		Residual:       res.Residual,
		Preconditioner: name,
	}, nil
}

// nearFieldPreconditioner factorizes every diagonal dense leaf block: the
// blocks are principal submatrices of an SPD matrix, hence SPD themselves,
// and together they cover the whole diagonal — a block-Jacobi preconditioner
// whose blocks capture exactly the strong near-field couplings the ACA tier
// does not smooth. Construction cost is Σ leaf³/3, negligible against the
// block fill.
func (h *HMatrix) nearFieldPreconditioner() (*nearFieldPreconditioner, error) {
	nf := &nearFieldPreconditioner{n: h.n}
	for i := range h.blocks {
		b := &h.blocks[i]
		if b.kind != denseDiag {
			continue
		}
		m := b.rowHi - b.rowLo
		sym := linalg.NewSymMatrix(m)
		for ii := 0; ii < m; ii++ {
			for jj := 0; jj <= ii; jj++ {
				// The stored full block came from one entry generator pass,
				// so the lower triangle is authoritative.
				sym.Set(ii, jj, b.d[ii*m+jj])
			}
		}
		chol, err := linalg.NewCholeskyBlocked(sym, linalg.FactorOpts{})
		if err != nil {
			return nil, fmt.Errorf("hmatrix: near-field block at rows [%d,%d): %w", b.rowLo, b.rowHi, err)
		}
		dofs := make([]int, m)
		for ii := range dofs {
			dofs[ii] = h.perm[b.rowLo+ii]
		}
		nf.blocks = append(nf.blocks, nfBlock{chol: chol, dofs: dofs, buf: make([]float64, m)})
		nf.covered += m
	}
	if nf.covered != h.n {
		return nil, fmt.Errorf("hmatrix: near-field blocks cover %d of %d DoFs", nf.covered, h.n)
	}
	return nf, nil
}

// nearFieldPreconditioner applies z = M⁻¹·r with M the block-diagonal matrix
// of the dense near-field leaves, in original DoF ordering.
type nearFieldPreconditioner struct {
	n       int
	covered int
	blocks  []nfBlock
}

type nfBlock struct {
	chol *linalg.Cholesky
	dofs []int
	buf  []float64
}

// Precondition implements linalg.Preconditioner.
func (nf *nearFieldPreconditioner) Precondition(r, z []float64) {
	for i := range nf.blocks {
		b := &nf.blocks[i]
		for ii, d := range b.dofs {
			b.buf[ii] = r[d]
		}
		x, err := b.chol.Solve(b.buf)
		if err != nil {
			// Unreachable for a full-precision factor of matching order; keep
			// the identity action rather than poisoning the iteration.
			x = b.buf
		}
		for ii, d := range b.dofs {
			z[d] = x[ii]
		}
	}
}
