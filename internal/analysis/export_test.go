package analysis

import (
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
)

// SetExactRules turns the dead-init rewrite (evalSOS) and the
// fail-first probe order (SearchCompletion) on or off, and returns a
// func that restores the previous setting. Both rules are on by
// default; the differential tests turn them off to get the plain
// pipeline as their reference.
func SetExactRules(on bool) (restore func()) {
	prev := exactRulesOff.Swap(!on)
	return func() { exactRulesOff.Store(prev) }
}

// ProbeRDefs exposes BuildInventory's choice of completion-probe
// resistances, so tests can repeat its searches one by one.
var ProbeRDefs = probeRDefs

// FreshSpiceFactory is the fresh-column reference for the pooled
// factory: every call builds a new pool, so every memory sits on a newly
// constructed column that no earlier point has touched.
func FreshSpiceFactory(tech dram.Technology) Factory {
	return func(open defect.Open, rdef float64) (Memory, error) {
		return NewPooledSpiceFactory(tech)(open, rdef)
	}
}
