package bem

import (
	"errors"
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

// KernelStrategy names the arithmetic of the image-series inner integrals of
// matrix generation. FlatKernel is its only value.
//
// Deprecated: matrix generation has one kernel; the type is kept for
// callers that still set Options.Kernel.
type KernelStrategy int

// FlatKernel, the zero value, evaluates each pair class from the shared
// image ladder (three scalars per image) in one of two branches. A far
// class — two horizontal elements, a layer pair with reflected images,
// midpoints at least four element lengths apart — reads the whole ladder
// from a per-depth-pair polynomial table of ρ² and integrates it with a
// short inner Gauss rule: no logarithm, no square root per (image, Gauss
// point). Every other class walks the ladder with a hoisted log-form inner
// integral, in which horizontal sources fuse the logarithms of an
// equal-weight image group into one per (group, Gauss point) and far terms
// replace the logarithm by a Maclaurin polynomial. The ladder walk is
// pinned to the closed-form asinh oracle of the package tests (grid
// resistances to ≤ 1e-10 relative), and the table branch to the ladder
// walk at a converged series tolerance (every far-class entry within 1e-10
// of its class's largest).
//
// Deprecated: it is the only kernel; leave Options.Kernel unset.
const FlatKernel KernelStrategy = 0

// ErrUnknownKernel reports an Options.Kernel other than FlatKernel.
var ErrUnknownKernel = errors.New("bem: unknown kernel strategy")

// String implements fmt.Stringer.
func (k KernelStrategy) String() string {
	if k == FlatKernel {
		return "flat"
	}
	return fmt.Sprintf("KernelStrategy(%d)", int(k))
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
	// Far classes (see FlatKernel) read a table summed to convergence and
	// do not consult it.
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
	// Kernel must be FlatKernel (the zero value); New rejects any other
	// value with ErrUnknownKernel.
	//
	// Deprecated: matrix generation has one kernel; leave Kernel unset.
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
