// Package spice implements the simulation engines that drive the
// netlists in internal/circuit: a Newton–Raphson DC operating-point
// solver and a fixed-step backward-Euler transient engine.
//
// The engine is deliberately small: modified nodal analysis with full
// Newton and a gmin conductance from every node to ground (which also
// gives genuinely floating nets — isolated bit lines behind a resistive
// open — a well-defined, slowly leaking voltage, exactly the "floating
// line" physics the partial-fault paper studies).
//
// Three stacked optimizations make repeated solves cheap without
// changing a single bit of the results (see DESIGN.md, "performance
// layer"):
//
//  1. Grounded-source elimination. Sources wired node-to-ground
//     (circuit.GroundedSource) force their node voltage a priori; the
//     engine removes both the node unknown and the branch-current
//     unknown from the factorized system, substituting the known
//     voltages into the right-hand side. The DRAM column drops from 57
//     to 25 unknowns, cutting the O(n³) factorization by an order of
//     magnitude.
//  2. Static stamp caching. Linear elements (circuit.SplitStamper)
//     stamp their matrix contribution once per dt regime into a cached
//     static matrix; only nonlinear elements (MOSFETs, switches)
//     restamp per iteration, and the linear right-hand side is rebuilt
//     once per step, folding in the pinned-source couplings over their
//     nonzeros only.
//  3. Compiled stamp plan over a pattern-locked sparse LU
//     (numeric.Workspace). The reduced column matrix has about 80
//     nonzeros of 625; the workspace records the pattern it sees
//     (grow-only; 215–234 entries with natural-order fill), compiles the
//     elimination over it, and skips only updates with a zero operand,
//     in the dense order. Once per dt regime the static matrix is
//     gathered into the pattern's compact order; each Newton iteration
//     copies that and the nonlinear elements stamp straight into it
//     through slots resolved once per pattern (circuit.SlotStamper), so
//     no dense matrix is assembled. A nonzero landing outside the
//     pattern grows it, and the iteration's stamping pass is repeated.
//     The elimination is exact while no row swap is needed, every
//     multiplier is finite and no -0 enters the pattern; otherwise, and
//     for right-hand sides holding -0 or non-finite values, the dense
//     elimination runs instead (about 0.2% of factorizations over all
//     simulated opens).
package spice

import (
	"errors"
	"fmt"
	"math"

	"github.com/memtest/partialfaults/internal/circuit"
	"github.com/memtest/partialfaults/internal/numeric"
)

// Options configures the engines. The zero value is not usable; call
// DefaultOptions.
type Options struct {
	// Gmin is the conductance from every node to ground, providing a DC
	// path for floating nets. 1e-12 S leaks a 250 fF bit line with a
	// time constant of ~250 s, i.e. effectively floating at the
	// nanosecond timescale of memory operations.
	Gmin float64
	// MaxNewtonIter bounds the Newton iterations per solve.
	MaxNewtonIter int
	// VTol is the absolute voltage convergence tolerance.
	VTol float64
	// MaxStepVoltage limits the per-iteration voltage update to damp
	// Newton on strongly nonlinear steps (sense-amp regeneration).
	MaxStepVoltage float64
	// Trapezoidal selects trapezoidal integration for reactive elements
	// (second-order accurate) instead of backward Euler (first-order,
	// maximally damped). The DRAM analyses use BE — the stiff defect RC
	// networks favour damping — but the trapezoidal option is validated
	// against analytic responses in the engine tests.
	Trapezoidal bool
}

// DefaultOptions returns the options used throughout the repository.
func DefaultOptions() Options {
	return Options{
		Gmin:           1e-12,
		MaxNewtonIter:  100,
		VTol:           1e-6,
		MaxStepVoltage: 1.0,
	}
}

// ErrNoConvergence is returned when Newton iteration fails to converge.
var ErrNoConvergence = errors.New("spice: Newton iteration did not converge")

// resetter is the optional element interface for clearing integration
// state after a forced state change.
type resetter interface{ ResetState() }

// pinnedNode is one eliminated grounded-source node.
type pinnedNode struct {
	node   int // 1-based circuit node index
	branch int // x index of the eliminated branch unknown
	src    circuit.GroundedSource
}

// Engine simulates a frozen circuit.
type Engine struct {
	ckt  *circuit.Circuit
	opts Options
	x    []float64 // current converged solution
	time float64

	ws    *numeric.Workspace
	xIter []float64
	xNew  []float64
	xPrev []float64

	// Element classification, computed once at construction.
	split      []circuit.SplitStamper // linear: cached A, per-step B
	dynamic    []circuit.Element      // nonlinear: restamped per iteration
	committers []circuit.Committer
	stateful   []resetter

	// The compiled stamp plan: slotted[i] is dynamic[i] when it stamps
	// through slots (nil otherwise), with its matrix slots at
	// slots[slotOff[2i]:slotOff[2i+1]] and its right-hand-side slots at
	// slots[slotOff[2i+1]:slotOff[2i+2]], resolved against the
	// workspace's pattern of slotLen entries; sinks[k] is the reduced
	// entry outside the pattern that accumulates at in[slotLen+k].
	slotted []circuit.SlotStamper
	slots   []circuit.Slot
	slotOff []int32
	slotLen int
	sinks   [][2]int

	// Grounded-source elimination.
	pinned  []pinnedNode
	free    []int     // reduced position → x index
	rowMap  []int     // x index → reduced position, or -1 if eliminated
	pinnedV []float64 // forced voltages at the current step time
	pinnedX []float64 // same, scattered over global x indexing

	// Cached stamps.
	staticA  *numeric.Matrix // linear part of A (full size), plus gmin
	staticDt float64
	staticOK bool
	stepB    []float64 // linear part of b for the current step

	// Reduced system buffers. aRedS caches the reduced static matrix per
	// dt regime, and sRed its entries in the workspace's compact order;
	// each Newton iteration copies sRed into in and stamps the nonlinear
	// elements over it. The nonzero static couplings of free rows to
	// pinned node columns are kept per dt regime as free row fi's run
	// [cStart[fi], cStart[fi+1]) of (pinned index cPin, value cVal),
	// folded into bRedBase each step so Newton iterations never revisit
	// the full-size system.
	aRedS    *numeric.Matrix
	sRed     []float64
	in       []float64
	cStart   []int32
	cPin     []int32
	cVal     []float64
	bRedBase []float64
	bRed     []float64
	xRed     []float64

	// regrows counts the stamping passes discarded because a nonzero
	// landed outside the pattern.
	regrows int

	// dense forces the reference dense assembly into aRed, elimination
	// and pinned-coupling fold; only tests set it.
	dense bool
	aRed  *numeric.Matrix

	// ctx is the one stamp context, refilled by stampContext for each
	// stamping pass: elements take it by pointer through an interface, so
	// a fresh one per pass would be a heap allocation three times a step.
	ctx circuit.StampContext
}

// NewEngine creates an engine for the circuit. The circuit must already
// be frozen (circuit.Freeze): before Freeze the branch-current indices
// handed out by Add are provisional, and stamping through them would
// silently alias node unknowns. An unfrozen or empty circuit is a
// construction-order bug in the caller, reported as an error.
func NewEngine(ckt *circuit.Circuit, opts Options) (*Engine, error) {
	if !ckt.Frozen() {
		return nil, fmt.Errorf("spice: circuit not frozen: branch indices are provisional until circuit.Freeze is called")
	}
	n := ckt.Size()
	if n == 0 {
		return nil, fmt.Errorf("spice: empty circuit")
	}
	e := &Engine{
		ckt:     ckt,
		opts:    opts,
		x:       make([]float64, n),
		xIter:   make([]float64, n),
		xNew:    make([]float64, n),
		xPrev:   make([]float64, n),
		staticA: numeric.NewMatrix(n, n),
		stepB:   make([]float64, n),
	}
	e.classify()
	if nf := len(e.free); nf > 0 {
		// A circuit can have no free unknowns at all (every node forced
		// by a grounded source); the solve then degenerates to waveform
		// evaluation and needs no factorization buffers.
		e.ws = numeric.NewWorkspace(nf)
		e.aRedS = numeric.NewMatrix(nf, nf)
		e.bRedBase = make([]float64, nf)
		e.bRed = make([]float64, nf)
		e.xRed = make([]float64, nf)
		e.cStart = make([]int32, nf+1)
	}
	return e, nil
}

// MustNewEngine is NewEngine for circuits known frozen by construction;
// it panics on error. Intended for tests and examples.
func MustNewEngine(ckt *circuit.Circuit, opts Options) *Engine {
	e, err := NewEngine(ckt, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// classify partitions the elements into linear (split-stampable) and
// nonlinear sets, collects committers and stateful elements, and works
// out which unknowns grounded sources eliminate.
func (e *Engine) classify() {
	// A node is only eliminable when exactly one grounded source forces
	// it; two sources on one node is a source loop (netlint flags it)
	// and must keep the legacy branch formulation so the solve exposes
	// the inconsistency instead of silently picking one source.
	forced := map[int]int{}
	for _, el := range e.ckt.Elements() {
		if gs, ok := el.(circuit.GroundedSource); ok {
			if node, _, ok := gs.PinnedNode(); ok {
				forced[node]++
			}
		}
	}
	eliminated := make(map[int]bool) // x indices removed from the solve
	for _, el := range e.ckt.Elements() {
		if cm, ok := el.(circuit.Committer); ok {
			e.committers = append(e.committers, cm)
		}
		if r, ok := el.(resetter); ok {
			e.stateful = append(e.stateful, r)
		}
		if gs, ok := el.(circuit.GroundedSource); ok {
			if node, branch, ok := gs.PinnedNode(); ok && forced[node] == 1 {
				e.pinned = append(e.pinned, pinnedNode{node: node, branch: branch, src: gs})
				eliminated[node-1] = true
				eliminated[branch] = true
				continue // fully replaced by the known voltage; never stamped
			}
		}
		if ss, ok := el.(circuit.SplitStamper); ok {
			e.split = append(e.split, ss)
		} else {
			e.dynamic = append(e.dynamic, el)
		}
	}
	e.slotted = make([]circuit.SlotStamper, len(e.dynamic))
	e.slotOff = make([]int32, 1, 2*len(e.dynamic)+1)
	var nodes []int
	for i, el := range e.dynamic {
		na, nb := 0, 0
		if ss, ok := el.(circuit.SlotStamper); ok {
			e.slotted[i] = ss
			rows, cols := ss.StampNodes(nodes)
			nodes = rows[:0]
			na, nb = len(rows)*len(cols), len(rows)
		}
		off := e.slotOff[len(e.slotOff)-1]
		e.slotOff = append(e.slotOff, off+int32(na), off+int32(na+nb))
	}
	e.slots = make([]circuit.Slot, e.slotOff[len(e.slotOff)-1])
	n := e.ckt.Size()
	e.free = make([]int, 0, n-len(eliminated))
	e.rowMap = make([]int, n)
	for i := 0; i < n; i++ {
		if eliminated[i] {
			e.rowMap[i] = -1
		} else {
			e.rowMap[i] = len(e.free)
			e.free = append(e.free, i)
		}
	}
	e.pinnedV = make([]float64, len(e.pinned))
	e.pinnedX = make([]float64, n)
}

// Time returns the current simulation time.
func (e *Engine) Time() float64 { return e.time }

// SetTime resets the simulation clock (used when restarting a stimulus
// schedule on a reused engine).
func (e *Engine) SetTime(t float64) { e.time = t }

// Voltage returns the node voltage of the named net in the current
// solution. It panics if the net does not exist.
func (e *Engine) Voltage(net string) float64 {
	idx, ok := e.ckt.NodeIndex(net)
	if !ok {
		panic(fmt.Sprintf("spice: unknown net %q", net))
	}
	return e.voltageAt(idx)
}

func (e *Engine) voltageAt(idx int) float64 {
	if idx == 0 {
		return 0
	}
	return e.x[idx-1]
}

// VoltageFn returns an accessor closure over the current solution,
// suitable for device current queries.
func (e *Engine) VoltageFn() func(int) float64 { return e.voltageAt }

// SetNodeVoltage forcibly sets a node voltage in the engine state. This
// implements the paper's fault-analysis methodology of *initializing
// floating voltages* (Section 2): before applying an operation, the
// analysis overwrites the floating line (bit line, cell node, word line,
// reference cell) with the swept initial value U.
func (e *Engine) SetNodeVoltage(net string, v float64) {
	idx, ok := e.ckt.NodeIndex(net)
	if !ok {
		panic(fmt.Sprintf("spice: unknown net %q", net))
	}
	if idx == 0 {
		panic("spice: cannot set ground voltage")
	}
	e.x[idx-1] = v
	// A forced state change invalidates stored integration state; the
	// stateful set is precomputed instead of rescanning every element.
	for _, r := range e.stateful {
		r.ResetState()
	}
}

// InvalidateStamps discards the cached static stamp. Callers must invoke
// it after mutating a linear element's parameters in place (e.g.
// Resistor.SetResistance during defect injection); waveform swaps on
// sources do not require it, as the right-hand side is rebuilt each
// step.
func (e *Engine) InvalidateStamps() { e.staticOK = false }

// Reset returns the engine to the state of a freshly constructed one:
// zero solution vector, zero clock, element integration state cleared,
// caches dropped. Column pooling uses it to recycle engines across
// sweep grid points.
func (e *Engine) Reset() {
	for i := range e.x {
		e.x[i] = 0
	}
	e.time = 0
	for _, r := range e.stateful {
		r.ResetState()
	}
	e.InvalidateStamps()
}

// State returns a copy of the solution vector and the simulation time —
// together with the element waveforms (owned by the caller's netlist
// layer) the full dynamic state of a backward-Euler transient.
func (e *Engine) State() ([]float64, float64) {
	x := make([]float64, len(e.x))
	copy(x, e.x)
	return x, e.time
}

// RestoreState reinstates a solution vector and clock captured by State.
// Element integration state is cleared, exactly as after a forced node
// initialization; under backward Euler the (x, time, waveforms) triple
// fully determines all subsequent behaviour. It panics under trapezoidal
// integration, where capacitor branch currents are genuine state that
// State does not capture.
func (e *Engine) RestoreState(x []float64, t float64) {
	if e.opts.Trapezoidal {
		panic("spice: RestoreState is only valid under backward Euler")
	}
	if len(x) != len(e.x) {
		panic("spice: RestoreState dimension mismatch")
	}
	copy(e.x, x)
	e.time = t
	for _, r := range e.stateful {
		r.ResetState()
	}
}

// stampContext installs c as the engine's stamp context and returns it.
// The stamping passes run one after another, never nested.
func (e *Engine) stampContext(c circuit.StampContext) *circuit.StampContext {
	e.ctx = c
	return &e.ctx
}

// refreshStatic rebuilds the cached static stamp when the dt regime
// changed or the cache was invalidated. Under trapezoidal integration
// capacitor companion conductances depend on per-step element state, so
// the static stamp is rebuilt every solve.
func (e *Engine) refreshStatic(dt float64) {
	if e.staticOK && math.Float64bits(dt) == math.Float64bits(e.staticDt) && !e.opts.Trapezoidal {
		return
	}
	e.staticA.Zero()
	ctx := e.stampContext(circuit.StampContext{
		A: e.staticA, Dt: dt, Trapezoidal: e.opts.Trapezoidal,
	})
	for _, el := range e.split {
		el.StampStaticA(ctx)
	}
	// gmin to ground on every node.
	for n := 0; n < e.ckt.NumNodes(); n++ {
		e.staticA.Add(n, n, e.opts.Gmin)
	}
	// Project the full-size static stamp onto the reduced system once per
	// regime: the free-by-free block and the nonzero couplings to pinned
	// columns.
	e.cPin, e.cVal = e.cPin[:0], e.cVal[:0]
	for fi, gi := range e.free {
		row := e.staticA.Row(gi)
		rr := e.aRedS.Row(fi)
		for fj, gj := range e.free {
			rr[fj] = row[gj]
		}
		e.cStart[fi] = int32(len(e.cPin))
		for k, p := range e.pinned {
			if c := row[p.node-1]; c != 0 {
				e.cPin = append(e.cPin, int32(k))
				e.cVal = append(e.cVal, c)
			}
		}
	}
	if nf := len(e.free); nf > 0 {
		e.cStart[nf] = int32(len(e.cPin))
		if !e.dense {
			e.regather()
		}
	}
	e.staticDt = dt
	e.staticOK = true
}

// regather projects the reduced static matrix into the workspace's
// compact order, growing the pattern by its nonzeros outside it and by
// the entries reserved since the last gather, and re-resolves the slots
// when the pattern grew.
func (e *Engine) regather() {
	e.sRed = e.ws.Gather(e.aRedS, e.sRed[:0])
	if len(e.sRed) == e.slotLen {
		// The pattern did not grow; the sinks' +0 tail is still there.
		e.sRed = e.sRed[:len(e.in)]
		return
	}
	e.slotLen = len(e.sRed)
	sr := circuit.NewSlotResolver(e.rowMap, e.ws)
	var nodes []int
	for i, ss := range e.slotted {
		if ss != nil {
			rows, cols := ss.StampNodes(nodes)
			nodes = rows[:0]
			sr.Resolve(rows, cols, e.slots[e.slotOff[2*i]:e.slotOff[2*i+1]], e.slots[e.slotOff[2*i+1]:e.slotOff[2*i+2]])
		}
	}
	// The sinks follow the pattern's values in in, and start at +0. Both
	// buffers live as long as the engine, so they get their exact sizes.
	e.sinks = sr.Sinks()
	sRed := make([]float64, e.slotLen+len(e.sinks))
	copy(sRed, e.sRed)
	e.sRed, e.in = sRed, make([]float64, len(sRed))
}

// stampCompact fills in and bRed with the iteration's reduced system: the
// static projection plus the nonlinear elements' stamps, in element
// order, which is the dense assembly's summation order entry by entry. A
// pass that leaves an entry outside the pattern nonzero (a slot stamp's
// sink, or a reservation by the stamp helpers) is discarded and repeated
// after regather took the entry in; the nonlinear stamps are pure in the
// context, so the repeat reproduces the pass exactly.
func (e *Engine) stampCompact(ctx *circuit.StampContext) {
	for {
		copy(e.in, e.sRed)
		copy(e.bRed, e.bRedBase)
		ctx.Val = e.in
		for i, el := range e.dynamic {
			if ss := e.slotted[i]; ss != nil {
				off := e.slotOff[2*i : 2*i+3]
				ss.StampSlots(ctx, e.slots[off[0]:off[1]], e.slots[off[1]:off[2]])
			} else {
				el.Stamp(ctx)
			}
		}
		for k, v := range e.in[e.slotLen:] {
			if math.Float64bits(v) != 0 {
				e.ws.Reserve(e.sinks[k][0], e.sinks[k][1])
			}
		}
		if !e.ws.Pending() {
			return
		}
		e.regather()
		e.regrows++
	}
}

// buildStepB rebuilds the linear right-hand side for the current step
// and evaluates the pinned node voltages at the step time.
func (e *Engine) buildStepB(xPrev []float64, dt float64) {
	for i := range e.stepB {
		e.stepB[i] = 0
	}
	ctx := e.stampContext(circuit.StampContext{
		B: e.stepB, XPrev: xPrev,
		Dt: dt, Time: e.time,
		Trapezoidal: e.opts.Trapezoidal,
	})
	for _, el := range e.split {
		el.StampStepB(ctx)
	}
	for i, p := range e.pinned {
		v := p.src.PinnedValue(e.time)
		e.pinnedV[i] = v
		e.pinnedX[p.node-1] = v
	}
	// Fold the step RHS and the static pinned couplings into the reduced
	// base vector; each Newton iteration copies it and adds only the
	// nonlinear contributions. Skipping the zero couplings is exact: a
	// skipped ±0 product can change the running sum only while it is -0,
	// or make it NaN when a pinned voltage is not finite, and both cases
	// take the full fold.
	finite := true
	for _, v := range e.pinnedV {
		finite = finite && v-v == 0
	}
	for fi, gi := range e.free {
		s := e.stepB[gi]
		for t := e.cStart[fi]; t < e.cStart[fi+1]; t++ {
			s -= e.cVal[t] * e.pinnedV[e.cPin[t]]
		}
		if !finite || e.dense || (s == 0 && math.Signbit(s)) {
			s = e.foldDense(gi)
		}
		e.bRedBase[fi] = s
	}
}

// foldDense is the reference fold of the pinned couplings of global row
// gi over every pinned column.
func (e *Engine) foldDense(gi int) float64 {
	row := e.staticA.Row(gi)
	s := e.stepB[gi]
	for k, p := range e.pinned {
		s -= row[p.node-1] * e.pinnedV[k]
	}
	return s
}

// newtonSolve iterates to convergence starting from guess, with xPrev as
// the previous-timestep state for companion models. On success the
// engine's solution vector is updated.
func (e *Engine) newtonSolve(guess, xPrev []float64, dt float64) error {
	e.refreshStatic(dt)
	e.buildStepB(xPrev, dt)
	xIter := e.xIter
	copy(xIter, guess)
	for k, p := range e.pinned {
		xIter[p.node-1] = e.pinnedV[k]
		xIter[p.branch] = 0
	}
	xNew := e.xNew
	nNodes := e.ckt.NumNodes()
	// Nonlinear elements stamp straight into the reduced system's compact
	// values through their slots (or the RowMap/PinnedX indirection); the
	// full-size matrix is never touched inside the Newton loop.
	ctx := e.stampContext(circuit.StampContext{
		B: e.bRed,
		X: xIter, XPrev: xPrev,
		Dt: dt, Time: e.time,
		Trapezoidal: e.opts.Trapezoidal,
		RowMap:      e.rowMap,
		PinnedX:     e.pinnedX,
	})
	if e.dense {
		ctx.A = e.aRed
	} else {
		ctx.Pattern = e.ws
	}
	for iter := 0; iter < e.opts.MaxNewtonIter; iter++ {
		if len(e.free) > 0 {
			var err error
			if e.dense {
				e.aRed.CopyFrom(e.aRedS)
				copy(e.bRed, e.bRedBase)
				for _, el := range e.dynamic {
					el.Stamp(ctx)
				}
				err = e.ws.FactorizeDense(e.aRed)
			} else {
				e.stampCompact(ctx)
				err = e.ws.FactorizeCompact(e.in[:e.slotLen])
			}
			if err != nil {
				return fmt.Errorf("spice: %w (iteration %d)", err, iter)
			}
			e.ws.Solve(e.bRed, e.xRed)
			for fi, gi := range e.free {
				xNew[gi] = e.xRed[fi]
			}
		}
		for k, p := range e.pinned {
			xNew[p.node-1] = e.pinnedV[k]
			xNew[p.branch] = 0
		}
		// Damp node-voltage updates.
		for i := 0; i < nNodes; i++ {
			d := xNew[i] - xIter[i]
			if d > e.opts.MaxStepVoltage {
				xNew[i] = xIter[i] + e.opts.MaxStepVoltage
			} else if d < -e.opts.MaxStepVoltage {
				xNew[i] = xIter[i] - e.opts.MaxStepVoltage
			}
		}
		delta := numeric.MaxAbsDiff(xNew[:nNodes], xIter[:nNodes])
		copy(xIter, xNew)
		if delta < e.opts.VTol {
			copy(e.x, xIter)
			return nil
		}
	}
	return ErrNoConvergence
}

// OperatingPoint solves the DC operating point (capacitors open) and
// stores it as the current solution.
func (e *Engine) OperatingPoint() error {
	return e.newtonSolve(e.x, e.x, 0)
}

// Step advances the transient solution by dt seconds using backward
// Euler. The previous solution is both the integration state and the
// Newton starting guess.
func (e *Engine) Step(dt float64) error {
	if dt <= 0 {
		panic("spice: Step requires dt > 0")
	}
	xPrev := e.xPrev
	copy(xPrev, e.x)
	e.time += dt
	if err := e.newtonSolve(xPrev, xPrev, dt); err != nil {
		e.time -= dt
		return err
	}
	if len(e.committers) > 0 {
		// Let stateful elements (trapezoidal capacitors) record the step.
		ctx := e.stampContext(circuit.StampContext{
			X: e.x, XPrev: xPrev,
			Dt: dt, Time: e.time,
			Trapezoidal: e.opts.Trapezoidal,
		})
		for _, cm := range e.committers {
			cm.Commit(ctx)
		}
	}
	return nil
}

// Run advances the transient by duration seconds in n equal steps,
// invoking observe (if non-nil) after every step with the engine.
func (e *Engine) Run(duration float64, n int, observe func(*Engine)) error {
	if n <= 0 {
		panic("spice: Run requires n > 0 steps")
	}
	dt := duration / float64(n)
	for i := 0; i < n; i++ {
		if err := e.Step(dt); err != nil {
			return fmt.Errorf("spice: step %d at t=%.3e: %w", i, e.time, err)
		}
		if observe != nil {
			observe(e)
		}
	}
	return nil
}

// Circuit returns the simulated circuit.
func (e *Engine) Circuit() *circuit.Circuit { return e.ckt }
