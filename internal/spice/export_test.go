package spice

import "github.com/memtest/partialfaults/internal/numeric"

// UseDenseReference makes e assemble every Newton Jacobian densely,
// factorize it with the reference dense elimination and fold every pinned
// coupling into the right-hand side, skipping no zero entries in any.
func UseDenseReference(e *Engine) {
	e.dense = true
	if e.aRedS != nil {
		e.aRed = numeric.NewMatrix(e.aRedS.Rows(), e.aRedS.Cols())
	}
}

// UseTrapezoidal switches e to trapezoidal integration.
func UseTrapezoidal(e *Engine) {
	e.opts.Trapezoidal = true
	e.InvalidateStamps()
}

// Regrows returns how many stamping passes e discarded because a nonzero
// landed outside the pattern.
func Regrows(e *Engine) int { return e.regrows }

// ReducedSystem returns the reduced Jacobian of e's last Newton
// iteration, in the compact order of the workspace that factorized it,
// with its right-hand side and the workspace.
func ReducedSystem(e *Engine) ([]float64, []float64, *numeric.Workspace) {
	return e.in[:e.slotLen], e.bRed, e.ws
}
