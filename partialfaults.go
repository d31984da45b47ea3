// Package partialfaults is a Go reproduction of Z. Al-Ars and A.J. van
// de Goor, "Modeling Techniques and Tests for Partial Faults in Memory
// Devices" (DATE 2002): fault-primitive modeling for DRAMs, an
// electrical (transient, SPICE-level) and an analytical simulator of a
// DRAM cell-array column with injectable open defects, the (R_def, U)
// fault-analysis method that identifies *partial faults*, the automatic
// completing-operation search, and a march-test engine with the paper's
// March PF test.
//
// This package is the public facade: it re-exports the library's core
// types and constructors so that downstream code does not depend on the
// internal package layout. The deep APIs live in:
//
//   - internal/fp        — fault primitives, SOS notation, FFM taxonomy
//   - internal/dram      — the electrical DRAM column (Figure 2)
//   - internal/behav     — the fast analytical column model
//   - internal/defect    — the nine opens and their floating-line groups
//   - internal/analysis  — plane sweeps, partial-fault rule, completions
//   - internal/march     — march tests, March PF, coverage evaluation
//   - internal/memsim    — functional array with partial-fault injection
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every figure and table.
package partialfaults

import (
	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/behav"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/march"
	"github.com/memtest/partialfaults/internal/memsim"
)

// Fault-primitive modeling (internal/fp).
type (
	// FP is a fault primitive <S/F/R>.
	FP = fp.FP
	// SOS is a sensitizing operation sequence.
	SOS = fp.SOS
	// Op is a memory operation within an SOS.
	Op = fp.Op
	// FFM is a functional fault model (RDF, IRF, TF, …).
	FFM = fp.FFM
)

// ParseFP reads a fault primitive in the paper's notation, e.g.
// "<1v [w0BL] r1v/0/0>".
func ParseFP(s string) (FP, error) { return fp.Parse(s) }

// MustParseFP parses a fault primitive and panics on error.
func MustParseFP(s string) FP { return fp.MustParse(s) }

// CountSingleCellFPs returns the size of the single-cell FP space at
// exactly n operations (Section 4 of the paper).
func CountSingleCellFPs(n int) int { return fp.CountSingleCellFPs(n) }

// DRAM column simulation (internal/dram, internal/behav).
type (
	// Technology holds the electrical and timing parameters of the
	// simulated column.
	Technology = dram.Technology
	// Column is the transient-simulated (SPICE-level) DRAM column.
	Column = dram.Column
	// BehavModel is the fast analytical column model.
	BehavModel = behav.Model
)

// DefaultTechnology returns the calibrated 0.35 µm-class parameters.
func DefaultTechnology() Technology { return dram.Default() }

// Defect-site names of the column models, re-exported for injection via
// Column.SetSiteResistance / BehavModel.SetSiteResistance.
const (
	SiteOpen1Cell    = dram.SiteOpen1Cell
	SiteOpen2RefCell = dram.SiteOpen2RefCell
	SiteOpen3Pre     = dram.SiteOpen3Pre
	SiteOpen4BLPre   = dram.SiteOpen4BLPre
	SiteOpen5BLCell  = dram.SiteOpen5BLCell
	SiteOpen6BLRef   = dram.SiteOpen6BLRef
	SiteOpen7SA      = dram.SiteOpen7SA
	SiteOpen8BLIO    = dram.SiteOpen8BLIO
	SiteOpen9WL      = dram.SiteOpen9WL
	SiteShortCellGnd = dram.SiteShortCellGnd
	SiteShortBLVdd   = dram.SiteShortBLVdd
	SiteBridgeBLBL   = dram.SiteBridgeBLBL
	SiteBridgeCells  = dram.SiteBridgeCells
)

// NewColumn builds an electrical DRAM column. A non-nil error means the
// netlist construction itself is malformed.
func NewColumn(t Technology) (*Column, error) { return dram.NewColumn(t) }

// NewBehavModel builds the analytical column model.
func NewBehavModel() *BehavModel { return behav.New(behav.DefaultParams()) }

// Defects (internal/defect).
type (
	// OpenDefect is one of the paper's nine open locations.
	OpenDefect = defect.Open
	// FloatVar names a floating-voltage variable ("Bit line", …).
	FloatVar = defect.FloatVar
)

// Opens returns the paper's nine open-defect descriptions.
func Opens() []OpenDefect { return defect.Opens() }

// OpenByID returns the open with the given Figure 2 number.
func OpenByID(id int) (OpenDefect, bool) { return defect.ByID(id) }

// Fault analysis (internal/analysis).
type (
	// Plane is an (R_def, U) fault-region sweep result.
	Plane = analysis.Plane
	// SweepConfig parameterizes a plane sweep.
	SweepConfig = analysis.SweepConfig
	// PartialFinding is one identified partial fault.
	PartialFinding = analysis.PartialFinding
	// CompletionConfig parameterizes the completing-operation search.
	CompletionConfig = analysis.CompletionConfig
	// Factory builds devices under analysis.
	Factory = analysis.Factory
)

// NewSpiceFactory returns an analysis factory backed by the electrical
// column, recycling columns across the points of a sweep.
func NewSpiceFactory(t Technology) Factory { return analysis.NewPooledSpiceFactory(t) }

// NewBehavFactory returns an analysis factory backed by the analytical
// model.
func NewBehavFactory() Factory { return behav.NewFactory(behav.DefaultParams()) }

// SweepPlane simulates an (R_def, U) grid for one SOS.
func SweepPlane(cfg SweepConfig) (*Plane, error) { return analysis.SweepPlane(cfg) }

// IdentifyPartialFaults applies the paper's Section 3 rule to a plane.
func IdentifyPartialFaults(p *Plane) []PartialFinding {
	return analysis.IdentifyPartialFaults(p)
}

// SearchCompletion finds minimal completing operations for a partial FP.
func SearchCompletion(cfg CompletionConfig) (analysis.Completion, error) {
	return analysis.SearchCompletion(cfg)
}

// March testing (internal/march, internal/memsim).
type (
	// MarchTest is a march test in standard notation.
	MarchTest = march.Test
	// MemArray is the functional fault-injectable memory array.
	MemArray = memsim.Array
	// InjectableFault describes a fault to inject into a MemArray.
	InjectableFault = memsim.Fault
)

// MarchPF returns the paper's March PF test.
func MarchPF() MarchTest { return march.MarchPF() }

// MarchTests returns the full test library (classical tests + March PF).
func MarchTests() []MarchTest { return march.All() }

// ParseMarchTest reads march notation like "{⇕(w0); ⇑(r0,w1); ⇓(r1,w0)}"
// or the ASCII form "{m(w0); u(r0,w1); d(r1,w0)}".
func ParseMarchTest(name, notation string) (MarchTest, error) {
	return march.Parse(name, notation)
}

// NewMemArray builds a rows×cols functional memory array.
func NewMemArray(rows, cols int) *MemArray { return memsim.NewArray(rows, cols) }
