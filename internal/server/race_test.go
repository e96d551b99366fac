//go:build race

package server_test

// raceEnabled reports a -race build: the race runtime changes allocation
// sizes and drops pooled buffers at random, so allocation budgets do not
// hold under it.
const raceEnabled = true
