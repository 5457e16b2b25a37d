package earthing

import (
	"context"

	"earthing/internal/designopt"
)

// Grid-synthesis re-exports: the design-loop engine that searches layout
// parameters (lattice density, perimeter rods, burial depth) to minimize
// copper cost subject to the IEEE Std 80 limits, analyzing each candidate
// through Analyze's own stages on an image ladder the whole search shares.
// See internal/designopt for the penalty method and the determinism
// contract.
type (
	// OptimizeSpec is the design problem: site, soil, fault, safety
	// criteria and layout bounds.
	OptimizeSpec = designopt.Spec
	// OptimizeOptions are the search knobs: analysis Config, multi-start
	// count, seed, evaluation budget, penalty weight.
	OptimizeOptions = designopt.Options
	// OptimizedDesign is one scored candidate layout.
	OptimizedDesign = designopt.Design
	// OptimizeProgress is one streamed best-so-far update.
	OptimizeProgress = designopt.Progress
	// OptimizeStats counts the search's work (requests, unique solves,
	// cache hits, failures).
	OptimizeStats = designopt.Stats
)

// ErrNoFeasibleOptimize is returned when the search budget found no layout
// meeting every safety criterion; the best infeasible design is still
// returned alongside it.
var ErrNoFeasibleOptimize = designopt.ErrNoFeasible

// Optimize searches the spec's layout family for the cheapest design that
// meets the IEEE Std 80 touch/step/mesh limits. Each generation's new
// candidates are analyzed one at a time at the configured worker width, and
// the search is bit-reproducible at any worker count for a fixed seed. The
// compressed tier (WithHMatrix) is refused before any work.
// Options are applied on top of opt.Config (see Option).
//
// The returned design is non-nil whenever at least one candidate scored —
// including under ErrNoFeasibleOptimize, where it is the least-violating
// layout found.
func Optimize(ctx context.Context, spec OptimizeSpec, opt OptimizeOptions, opts ...Option) (*OptimizedDesign, OptimizeStats, error) {
	opt.Config = applyOptions(opt.Config, opts)
	return designopt.Run(ctx, spec, opt)
}

// OptimizeStream is Optimize with incremental delivery: emit is called
// (serialized) after every generation that improves the incumbent best, with
// the improving design and the cumulative work counters. An emit error
// aborts the search and is returned.
func OptimizeStream(ctx context.Context, spec OptimizeSpec, opt OptimizeOptions, emit func(OptimizeProgress) error, opts ...Option) (*OptimizedDesign, OptimizeStats, error) {
	opt.Config = applyOptions(opt.Config, opts)
	return designopt.Stream(ctx, spec, opt, emit)
}
