package earthing

// Option adjusts an analysis or sweep on top of a base Config. Every knob
// with a Config field is set through that field; the option that remains
// carries what a field alone cannot say — WithHMatrix sets the solver and
// its block tolerances together — next to the no-op WithFlatAssembly kept
// for existing callers:
//
//	res, err := earthing.Analyze(ctx, g, model,
//		earthing.Config{GPR: 10_000, BEM: earthing.BEMOptions{Workers: 8}},
//		earthing.WithHMatrix(1e-6, 0))
//
// DESIGN.md §11 lists the Config field behind every knob.
type Option func(*Config)

func applyOptions(cfg Config, opts []Option) Config {
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// WithFlatAssembly is a no-op kept for compatibility: the flat image-series
// kernel it used to select is the only kernel of matrix generation. See
// DESIGN.md §13.
//
// Deprecated: drop the option; it changes nothing.
func WithFlatAssembly() Option {
	return func(*Config) {}
}

// WithHMatrix selects the compressed hierarchical-matrix solver
// (Config.Solver = SolverHMatrix) with the given block tolerance and
// admissibility parameter. eps ≤ 0 keeps the default 1e-6 (relative
// Frobenius tolerance per compressed block; the equivalent resistance
// tracks it within a small multiple). eta ≤ 0 keeps the default 2 —
// larger values compress more of the matrix at slightly higher rank.
// Leaf size and the dense fallback threshold stay at their Config.HMatrix
// defaults unless the base Config sets them; the per-block rank cap is the
// constant 96.
func WithHMatrix(eps, eta float64) Option {
	return func(cfg *Config) {
		cfg.Solver = SolverHMatrix
		cfg.HMatrix.Eps = eps
		cfg.HMatrix.Eta = eta
	}
}
