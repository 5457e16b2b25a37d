package fixture

import (
	"testing"

	"fixture/sched"
)

// Unlike most analyzers, panicerr runs on _test.go files too: a dropped
// containment error in a chaos suite hides a swallowed panic.
func TestDropFlaggedInTests(t *testing.T) {
	sched.ForStatsCtx(nil, 1, func(int, int) {}) // want "call to sched.ForStatsCtx drops its containment error"
	t.Log("the line above is the scenario under test")
}
