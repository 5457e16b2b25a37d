package earthing

// Option tweaks one analysis or sweep parameter on top of a base Config.
// Options are applied in order after the Config literal, so they win over
// the corresponding struct fields; the zero value of every knob means
// "keep whatever the Config says". They exist so call sites can name the
// one or two parameters they care about instead of threading a fully
// populated Config through every layer:
//
//	res, err := earthing.Analyze(ctx, g, model, earthing.Config{GPR: 10_000},
//		earthing.WithWorkers(8),
//		earthing.WithSchedule(earthing.Schedule{Kind: earthing.Guided, Chunk: 4}))
//
// The mapping from legacy Config fields to options is documented in
// DESIGN.md §11.
type Option func(*settings)

// settings is the resolved parameter set an Option mutates: the Config all
// analyses understand plus sweep-only switches that have no Config field.
type settings struct {
	cfg         Config
	allowScaled bool
}

func applyOptions(cfg Config, opts []Option) settings {
	s := settings{cfg: cfg}
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	return s
}

// WithWorkers sets the number of workers used for matrix generation and the
// parallel solver (Config.BEM.Workers). n ≤ 0 selects GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(s *settings) { s.cfg.BEM.Workers = n }
}

// WithSchedule sets the OpenMP-style loop schedule for matrix generation
// (Config.BEM.Schedule).
func WithSchedule(sch Schedule) Option {
	return func(s *settings) { s.cfg.BEM.Schedule = sch }
}

// WithGPR sets the ground potential rise in volts (Config.GPR).
func WithGPR(gpr float64) Option {
	return func(s *settings) { s.cfg.GPR = gpr }
}

// WithQuadOrder sets the Gauss-Legendre order for regular element pairs
// (Config.BEM.GaussOrder). The near-field order is left to its default
// unless the base Config sets it.
func WithQuadOrder(order int) Option {
	return func(s *settings) { s.cfg.BEM.GaussOrder = order }
}

// WithSolver selects the linear solver (Config.Solver): PCG (default),
// Cholesky (tiled packed direct factorization, bit-identical at every worker
// count), CholeskyMixed (float32 trailing updates + float64 iterative
// refinement; falls back to full precision when refinement cannot reach
// float64 accuracy) or SolverHMatrix (prefer WithHMatrix, which also sets
// the block tolerance).
func WithSolver(k SolverKind) Option {
	return func(s *settings) { s.cfg.Solver = k }
}

// WithFlatAssembly is a no-op kept for compatibility: the flat image-series
// kernel it used to select is now the default (and only production) kernel
// of matrix generation. See DESIGN.md §13.
func WithFlatAssembly() Option {
	return func(*settings) {}
}

// WithHealthCheck enables the numerical health checks around the solve
// stage (Config.HealthCheck): the system and solution are scanned for
// NaN/Inf and the matrix conditioning is estimated; an analysis whose
// numbers cannot be trusted fails with a typed *HealthError instead of
// serving garbage. condLimit sets the condition-estimate failure threshold
// (≤ 0 selects the default 1e12); estimates within 10⁴ of the limit pass
// with a warning on the Result.
func WithHealthCheck(condLimit float64) Option {
	return func(s *settings) {
		s.cfg.HealthCheck = true
		s.cfg.CondLimit = condLimit
	}
}

// WithHMatrix selects the compressed hierarchical-matrix solver
// (Config.Solver = SolverHMatrix) with the given block tolerance and
// admissibility parameter. eps ≤ 0 keeps the default 1e-6 (relative
// Frobenius tolerance per compressed block; the equivalent resistance
// tracks it within a small multiple). eta ≤ 0 keeps the default 2 —
// larger values compress more of the matrix at slightly higher rank.
// Leaf size, rank cap and the dense fallback threshold stay at their
// Config.HMatrix defaults unless the base Config sets them.
func WithHMatrix(eps, eta float64) Option {
	return func(s *settings) {
		s.cfg.Solver = SolverHMatrix
		s.cfg.HMatrix.Eps = eps
		s.cfg.HMatrix.Eta = eta
	}
}

// WithScaledReuse lets Sweep serve a scenario whose soil model is an exact
// proportional rescaling of an already-assembled one by scaling that
// solution instead of assembling again (σ′ = s·σ, R′ = R/s). The derivation
// is mathematically exact but not bit-identical to a fresh assembly, so it
// is opt-in; Analyze ignores it.
func WithScaledReuse() Option {
	return func(s *settings) { s.allowScaled = true }
}
