//go:build !race

package analysis_test

// raceEnabled reports a -race build, where the slowest differential
// tests skip (they still run in the plain test run).
const raceEnabled = false
