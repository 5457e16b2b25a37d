package bem

import (
	"fmt"

	"earthing/internal/sched"
)

// LoopStrategy selects which of the two nested matrix-generation loops is
// parallelized — the comparison of Figure 6.1 of the paper.
type LoopStrategy int

const (
	// OuterLoop distributes the β cycles (columns of the element-pair
	// triangle, each evaluating the pair classes it owns) among workers.
	// Bigger granularity; the paper's winner.
	OuterLoop LoopStrategy = iota
	// InnerLoop runs the β cycles sequentially and distributes each column's
	// pair classes among workers, paying a synchronization barrier per
	// column.
	InnerLoop
)

// String implements fmt.Stringer.
func (l LoopStrategy) String() string {
	switch l {
	case OuterLoop:
		return "outer"
	case InnerLoop:
		return "inner"
	default:
		return fmt.Sprintf("LoopStrategy(%d)", int(l))
	}
}

// KernelStrategy selects the arithmetic used for the image-series inner
// integrals of matrix generation.
type KernelStrategy int

const (
	// FlatKernel, the default and the production path, streams the shared
	// image ladder (three scalars per image) through a hoisted log-form
	// inner integral: one logarithm and two square roots per (image, Gauss
	// point) instead of two asinh calls and the full segment reflection.
	// Elemental matrices agree with ReferenceKernel to a few ulp (grid
	// resistances to ≤ 1e-10 relative, pinned by the differential tests).
	FlatKernel KernelStrategy = iota
	// ReferenceKernel evaluates every image-reflected segment through the
	// closed-form asinh inner integrals (segmentIntegrals), re-deriving the
	// reflected geometry per image. It is the oracle the flat kernel is
	// tested against; select it explicitly only for that comparison.
	ReferenceKernel
)

// String implements fmt.Stringer.
func (k KernelStrategy) String() string {
	switch k {
	case ReferenceKernel:
		return "reference"
	case FlatKernel:
		return "flat"
	default:
		return fmt.Sprintf("KernelStrategy(%d)", int(k))
	}
}

// AssemblyMode selects how elemental matrices reach the global matrix.
type AssemblyMode int

const (
	// StoreThenAssemble computes and stores all elemental matrices (one per
	// pair class) in the parallel loop and assembles them sequentially
	// afterwards — the paper's dependency-breaking transformation (§6.2),
	// costing one k×k slot per class and a 4-byte class entry per pair.
	StoreThenAssemble AssemblyMode = iota
	// MutexAssemble assembles each elemental matrix into the global matrix
	// (onto every member pair of its class) under a lock as soon as it is
	// computed — the ablation baseline whose contention the paper's
	// transformation avoids.
	MutexAssemble
)

// String implements fmt.Stringer.
func (a AssemblyMode) String() string {
	switch a {
	case StoreThenAssemble:
		return "store-then-assemble"
	case MutexAssemble:
		return "mutex"
	default:
		return fmt.Sprintf("AssemblyMode(%d)", int(a))
	}
}

// Options configures matrix generation and potential evaluation. The zero
// value selects the defaults documented on each field.
type Options struct {
	// GaussOrder is the outer (Galerkin test) integration order per element.
	// Default 4; raise it for close, strongly graded meshes.
	GaussOrder int
	// NearGaussOrder is the outer order used for element pairs closer than
	// half their combined length (self, touching and adjacent pairs), where
	// the inner analytic integral varies fastest along the test element.
	// Default 2·GaussOrder, capped at 16. Set equal to GaussOrder to
	// disable near-field refinement.
	NearGaussOrder int
	// SeriesTol truncates the image-series accumulation of an elemental
	// matrix once a whole series group contributes less than
	// SeriesTol·|accumulated| for two consecutive groups. Default 1e-7.
	SeriesTol float64
	// MaxGroups caps the image series (the paper's "upper limit of
	// summands"). Default 256.
	MaxGroups int
	// Workers is the parallel width; 0 selects GOMAXPROCS, 1 runs the
	// sequential code path.
	Workers int
	// Schedule is the work-sharing schedule for the parallelized loop.
	// Default {Dynamic, 1}, the paper's best performer (Table 6.2).
	Schedule sched.Schedule
	// Loop selects outer- or inner-loop parallelization (Figure 6.1).
	Loop LoopStrategy
	// Assembly selects deferred or mutex assembly (§6.2).
	Assembly AssemblyMode
	// Kernel selects the inner-integral arithmetic: the flat image-ladder
	// kernel (default) or the reference oracle.
	Kernel KernelStrategy
}

func (o Options) withDefaults() Options {
	if o.GaussOrder <= 0 {
		o.GaussOrder = 4
	}
	if o.NearGaussOrder <= 0 {
		o.NearGaussOrder = 2 * o.GaussOrder
		if o.NearGaussOrder > 16 {
			o.NearGaussOrder = 16
		}
	}
	if o.NearGaussOrder < o.GaussOrder {
		o.NearGaussOrder = o.GaussOrder
	}
	if o.SeriesTol <= 0 {
		o.SeriesTol = 1e-7
	}
	if o.MaxGroups <= 0 {
		o.MaxGroups = 256
	}
	if o.Schedule.IsZero() {
		o.Schedule = sched.Schedule{Kind: sched.Dynamic, Chunk: 1}
	}
	return o
}
