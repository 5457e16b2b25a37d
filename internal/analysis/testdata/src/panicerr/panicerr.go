// Fixture for the panicerr analyzer: containment errors from the
// sched/sweep/earthing stubs must be checked, and the typed errors must be
// matched through errors.As/Is rather than direct assertions or identity.
package fixture

import (
	"errors"
	"fmt"

	"fixture/core"
	"fixture/earthing"
	"fixture/sched"
	"fixture/sweep"
)

func dropped(work func(int, int)) {
	sched.ForStatsCtx(nil, 4, work)    // want "call to sched.ForStatsCtx drops its containment error"
	sched.ForTilesCtx(nil, 4, 2, work) // want "call to sched.ForTilesCtx drops its containment error"
	defer sweep.Run(nil, nil)          // want "deferred call to sweep.Run drops its containment error"
	earthing.Analyze(nil)              // want "call to earthing.Analyze drops its containment error"
}

func blanked(work func(int, int)) {
	_, _ = sched.ForStatsCtx(nil, 4, work) // want "containment error of sched.ForStatsCtx discarded via _"
	_ = sched.ForTilesCtx(nil, 4, 2, work) // want "containment error of sched.ForTilesCtx discarded via _"
	_ = earthing.Check(nil)                // want "containment error of earthing.Check discarded via _"
	res, _ := sweep.Run(nil, nil)          // want "containment error of sweep.Run discarded via _"
	_ = res
}

func matches(err error) {
	if pe, ok := err.(*sched.PanicError); ok { // want "direct type assertion to *sched.PanicError misses wrapped errors"
		_ = pe
	}
	switch err.(type) {
	case *core.HealthError: // want "type-switch case *core.HealthError misses wrapped errors"
	default:
	}
	var pe *sched.PanicError
	if err == pe { // want "== comparison with *sched.PanicError misses wrapped errors"
		return
	}
}

func good(err error) bool {
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		return pe != nil // nil checks on the concrete pointer are fine
	}
	var he *core.HealthError
	return errors.As(err, &he)
}

func recovered() {
	defer func() {
		if r := recover(); r != nil {
			// Asserting on recover()'s any is fine: errors.As does not
			// apply to non-error values.
			if pe, ok := r.(*sched.PanicError); ok {
				fmt.Println(pe)
			}
		}
	}()
}

func excused() {
	//lint:ignore panicerr fixture demonstrates a justified suppression
	_ = earthing.Check(nil)
}
