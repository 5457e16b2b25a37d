package sched

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a panic recovered inside a parallel loop body. The package
// contains worker panics instead of letting them crash the process: the
// panicking worker records the first PanicError, its siblings stop claiming
// chunks at the next schedule boundary, and the loop joins all goroutines
// before reporting.
//
// ForStatsCtx and ForTilesCtx return the *PanicError as an ordinary error,
// so long-lived callers (servers, batch engines) degrade gracefully. A
// caller with no error result (a matrix-vector product) re-raises it on its
// own goroutine once every worker has joined, where the caller's caller can
// see and recover it — never on an anonymous worker goroutine, where it
// would be unrecoverable and fatal to the process.
type PanicError struct {
	// Value is the original value passed to panic().
	Value any
	// Stack is the panicking goroutine's stack at recovery time, including
	// the frames of the panicking loop body.
	Stack []byte
	// Iteration is the loop index whose body panicked.
	Iteration int
	// Worker is the id of the worker that executed it.
	Worker int
}

// Error implements error. The message carries the original panic value and
// the captured stack, so a logged or HTTP-reported error is a complete
// diagnostic on its own.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: panic in loop body (iteration %d, worker %d): %v\n%s",
		e.Iteration, e.Worker, e.Value, e.Stack)
}

// Unwrap exposes the panic value when it was itself an error, so
// errors.Is/As reach through the containment layer.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// UnknownScheduleError reports a Schedule whose Kind is not one of Static,
// Dynamic or Guided reaching a parallel loop. ParseSchedule can never
// produce one; a hand-built Schedule can, and the loops return
// this instead of panicking mid-request (see Schedule.Validate for the
// construction-time check).
type UnknownScheduleError struct {
	Kind Kind
}

// Error implements error.
func (e *UnknownScheduleError) Error() string {
	return fmt.Sprintf("sched: unknown schedule kind %d", int(e.Kind))
}

// recordPanic captures the first worker panic of a loop; later panics (a
// sibling may fault in the same chunk window) are dropped — the first is
// the diagnostic that matters and the loop is already aborting.
func (c *canceller) recordPanic(v any, iteration, worker int) {
	c.panicErr.CompareAndSwap(nil, &PanicError{
		Value:     v,
		Stack:     debug.Stack(),
		Iteration: iteration,
		Worker:    worker,
	})
}
