package spice

import "github.com/memtest/partialfaults/internal/numeric"

// UseDenseReference makes e factorize every Newton Jacobian with the
// reference dense elimination and fold every pinned coupling into the
// right-hand side, skipping no zero entries in either.
func UseDenseReference(e *Engine) { e.dense = true }

// ReducedSystem returns the reduced Jacobian and right-hand side of e's
// last Newton iteration, and the workspace that factorized it.
func ReducedSystem(e *Engine) (*numeric.Matrix, []float64, *numeric.Workspace) {
	return e.aRed, e.bRed, e.ws
}
