package behav

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/numeric"
)

// phase describes which control paths are active during an interval,
// mirroring the signals of dram/controller.go.
type phase struct {
	pre, dref      bool
	wl0, wl1, dwlc bool
	sen            bool
	csl, ren, wen  bool
	wdata          int
}

// run integrates the model over dur seconds with the given phase active,
// using a Jacobi-implicit nodal update per step: every node moves to the
// conductance-weighted average of its own state and its neighbours'
// previous values,
//
//	v' = (C/dt·v + Σ g·v_neigh) / (C/dt + Σ g),
//
// which is unconditionally stable (a convex combination) and resolves
// simultaneous competition — e.g. the write driver overpowering the
// sense amplifier — by conductance ratio, like the electrical model.
//
// The phase's coefficients are loaded once per call (see kernel); the
// step loop then runs straight-line code over the fixed topology.
func (m *Model) run(dur float64, ph phase) {
	steps := int(dur/m.P.DT + 0.5)
	if steps < 1 {
		steps = 1
	}
	dt := dur / float64(steps)
	var k kernel
	k.load(m, ph, dt)
	var buf [numNodes]float64
	cur, next := &m.v, &buf
	for s := 0; s < steps; s++ {
		k.step(cur, next)
		cur, next = next, cur
		m.time += dt
	}
	m.v = *cur
}

// kernel is the per-phase coefficient block of the step: every static
// conductance of the column's fixed topology, with the source voltages
// its source terms pull towards. A term the phase leaves out keeps
// g = 0. Only the victim access device (gate-voltage dependent) and the
// sense amplifier (sign dependent) are evaluated per step.
//
// step sums each node's contributions in a fixed per-node order, one
// acc += g·x statement per term, starting from +0. A sum that starts
// from +0 never becomes -0 under round-to-nearest, so an absent term
// (g = 0, adding ±0 for a finite x) leaves it bit-identical to a sum that
// never saw the term. The per-node order is the one the reference
// integrator in oracle_test.go accumulates in, term for term, so targets
// that fuse multiply-add fuse both alike; TestKernelMatchesOracle pins
// the two bit for bit.
type kernel struct {
	gc  [numNodes]float64 // C/dt
	den [numNodes]float64 // C/dt + Σ g, for nodes without dynamic terms

	gGate, vGate           float64 // word-line driver through Open 9
	gBT4, gBT5, gBT6, gBT8 float64 // BT chain through Opens 4, 5, 6, 8
	gBC                    float64 // BC chain segments (wire floor)
	gPreT, gPreC, vPre     float64 // precharge (Open 3 on BT)
	gRefC, gRefT, vRef     float64 // reference-cell restore (Open 2 on BC)
	gWL1, gDWLC            float64 // aggressor and reference word lines
	gCSL                   float64 // column select
	gWD, vWDT, vWDC        float64 // write driver on IO and IOB
	gRen                   float64 // output switch
	gCellGnd               float64 // cell 0 short to ground
	gBLVdd, vdd            float64 // BT short to VDD
	gBLBL, gCells          float64 // BT–BC and cell–cell bridges

	// Victim access device: RAccess/frac + Open 1; gVicOn at frac = 1.
	rAccess, rOpen1, vonSpan, gVicOn float64
	// Sense amplifier: pull-up RSA, pull-down RSA + Open 7.
	sen            bool
	gUp, gDown     float64
	vOffset        float64
	gBTCell, gBTSA float64 // static conductance sums ahead of the
	gBCSA          float64 // per-step term on those nodes
}

// load fills the coefficient block from the live parameters and site
// resistances, so there is nothing to invalidate between runs.
func (k *kernel) load(m *Model, ph phase, dt float64) {
	t := m.P.Tech
	rw := m.P.RWire
	site := func(i int) float64 {
		if r := m.sites[i]; r > rw {
			return r
		}
		return rw
	}

	k.gGate = 1 / (m.sites[sOpen9] + 100)
	if ph.wl0 {
		k.vGate = t.VPP
	}
	k.gBT4 = 1 / site(sOpen4)
	k.gBT5 = 1 / site(sOpen5)
	k.gBT6 = 1 / site(sOpen6)
	k.gBT8 = 1 / site(sOpen8)
	k.gBC = 1 / rw
	k.vPre, k.vRef, k.vdd = t.VBLEQ, t.VRefCell, t.VDD
	if ph.pre {
		k.gPreT = 1 / (m.P.RPre + m.sites[sOpen3])
		k.gPreC = 1 / m.P.RPre
	}
	if ph.dref {
		k.gRefC = 1 / (m.P.RAccess + m.sites[sOpen2])
		k.gRefT = 1 / m.P.RAccess
	}
	if ph.wl1 {
		k.gWL1 = 1 / m.P.RAccess
	}
	if ph.dwlc {
		k.gDWLC = 1 / (m.P.RAccess + m.sites[sOpen2])
	}
	if ph.csl {
		k.gCSL = 1 / m.P.RCSL
	}
	if ph.wen {
		k.gWD = 1 / t.RWriteDriver
		k.vWDT, k.vWDC = 0, t.VDD
		if ph.wdata == 1 {
			k.vWDT, k.vWDC = t.VDD, 0
		}
	}
	if ph.ren {
		k.gRen = 1 / t.ROutSwitch
	}
	k.gCellGnd = 1 / m.sites[sShortCellGnd]
	k.gBLVdd = 1 / m.sites[sShortBLVdd]
	k.gBLBL = 1 / m.sites[sBridgeBLBL]
	k.gCells = 1 / m.sites[sBridgeCells]

	von := m.P.WLOnFraction * t.VPP
	k.rAccess, k.rOpen1, k.vonSpan = m.P.RAccess, m.sites[sOpen1], von-1.0
	k.gVicOn = 1 / (k.rAccess/1 + k.rOpen1)
	k.sen = ph.sen
	k.gUp = 1 / m.P.RSA
	k.gDown = 1 / (m.P.RSA + m.sites[sOpen7])
	k.vOffset = m.P.VOffset

	for n := range k.gc {
		k.gc[n] = m.cap[n] / dt
	}
	sum := func(n int, gs ...float64) {
		g := 0.0
		for _, x := range gs {
			g += x
		}
		k.den[n] = k.gc[n] + g
	}
	sum(nWL0Gate, k.gGate)
	sum(nBTPre, k.gBT4, k.gPreT)
	sum(nBTRef, k.gBT5, k.gBT6)
	sum(nBTIO, k.gBT8, k.gCSL)
	sum(nBCPre, k.gBC, k.gPreC)
	sum(nBCCell, k.gBC, k.gBC, k.gBLBL)
	sum(nBCRef, k.gBC, k.gBC, k.gDWLC)
	sum(nBCIO, k.gBC, k.gCSL)
	sum(nCell1, k.gWL1, k.gCells)
	sum(nRefC, k.gRefC, k.gDWLC)
	sum(nRefT, k.gRefT)
	sum(nIO, k.gCSL, k.gWD, k.gRen)
	sum(nIOB, k.gCSL, k.gWD)
	sum(nOutBuf, k.gRen)
	k.gBTCell = k.gBT4 + k.gBT5
	k.gBTSA = k.gBT6 + k.gBT8
	k.gBCSA = k.gBC + k.gBC
}

// step writes to x the node voltages one Jacobi-implicit step after v;
// x and v must not alias.
func (k *kernel) step(v, x *[numNodes]float64) {
	// Victim access device: its conductance follows the (possibly
	// floating) gate voltage, in series with the Open 1 site.
	gVic := 0.0
	switch frac := numeric.Clamp((v[nWL0Gate]-1.0)/k.vonSpan, 0, 1); {
	case frac >= 1: // fully on; RAccess/1 is exact, so gVicOn is the same value
		gVic = k.gVicOn
	case frac > 1e-6:
		gVic = 1 / (k.rAccess/frac + k.rOpen1)
	}
	// Rule-based regenerative sense amplifier with the Open 7 site in
	// the pull-down path. The input-referred offset makes zero
	// differential resolve to 1.
	var gSAT, vSAT, gSAC, vSAC float64
	if k.sen {
		if v[nBTSA]-v[nBCSA]+k.vOffset >= 0 {
			gSAT, vSAT, gSAC = k.gUp, k.vdd, k.gDown
		} else {
			gSAC, vSAC, gSAT = k.gUp, k.vdd, k.gDown
		}
	}

	var gv, g float64

	gv = 0
	gv += k.gGate * k.vGate
	x[nWL0Gate] = (k.gc[nWL0Gate]*v[nWL0Gate] + gv) / k.den[nWL0Gate]

	gv = 0
	gv += k.gBT4 * v[nBTCell]
	gv += k.gPreT * k.vPre
	x[nBTPre] = (k.gc[nBTPre]*v[nBTPre] + gv) / k.den[nBTPre]

	gv, g = 0, k.gBTCell
	gv += k.gBT4 * v[nBTPre]
	gv += k.gBT5 * v[nBTRef]
	gv += gVic * v[nCell0]
	g += gVic
	gv += k.gWL1 * v[nCell1]
	g += k.gWL1
	gv += k.gBLVdd * k.vdd
	g += k.gBLVdd
	gv += k.gBLBL * v[nBCCell]
	g += k.gBLBL
	x[nBTCell] = (k.gc[nBTCell]*v[nBTCell] + gv) / (k.gc[nBTCell] + g)

	gv = 0
	gv += k.gBT5 * v[nBTCell]
	gv += k.gBT6 * v[nBTSA]
	x[nBTRef] = (k.gc[nBTRef]*v[nBTRef] + gv) / k.den[nBTRef]

	gv, g = 0, k.gBTSA
	gv += k.gBT6 * v[nBTRef]
	gv += k.gBT8 * v[nBTIO]
	gv += gSAT * vSAT
	g += gSAT
	x[nBTSA] = (k.gc[nBTSA]*v[nBTSA] + gv) / (k.gc[nBTSA] + g)

	gv = 0
	gv += k.gBT8 * v[nBTSA]
	gv += k.gCSL * v[nIO]
	x[nBTIO] = (k.gc[nBTIO]*v[nBTIO] + gv) / k.den[nBTIO]

	gv = 0
	gv += k.gBC * v[nBCCell]
	gv += k.gPreC * k.vPre
	x[nBCPre] = (k.gc[nBCPre]*v[nBCPre] + gv) / k.den[nBCPre]

	gv = 0
	gv += k.gBC * v[nBCPre]
	gv += k.gBC * v[nBCRef]
	gv += k.gBLBL * v[nBTCell]
	x[nBCCell] = (k.gc[nBCCell]*v[nBCCell] + gv) / k.den[nBCCell]

	gv = 0
	gv += k.gBC * v[nBCCell]
	gv += k.gBC * v[nBCSA]
	gv += k.gDWLC * v[nRefC]
	x[nBCRef] = (k.gc[nBCRef]*v[nBCRef] + gv) / k.den[nBCRef]

	gv, g = 0, k.gBCSA
	gv += k.gBC * v[nBCRef]
	gv += k.gBC * v[nBCIO]
	gv += gSAC * vSAC
	g += gSAC
	x[nBCSA] = (k.gc[nBCSA]*v[nBCSA] + gv) / (k.gc[nBCSA] + g)

	gv = 0
	gv += k.gBC * v[nBCSA]
	gv += k.gCSL * v[nIOB]
	x[nBCIO] = (k.gc[nBCIO]*v[nBCIO] + gv) / k.den[nBCIO]

	// The ground short pulls towards 0 V: its g·0 term would add +0,
	// which leaves the sum unchanged, so only its conductance is added.
	gv, g = 0, 0
	gv += gVic * v[nBTCell]
	g += gVic
	g += k.gCellGnd
	gv += k.gCells * v[nCell1]
	g += k.gCells
	x[nCell0] = (k.gc[nCell0]*v[nCell0] + gv) / (k.gc[nCell0] + g)

	gv = 0
	gv += k.gWL1 * v[nBTCell]
	gv += k.gCells * v[nCell0]
	x[nCell1] = (k.gc[nCell1]*v[nCell1] + gv) / k.den[nCell1]

	gv = 0
	gv += k.gRefC * k.vRef
	gv += k.gDWLC * v[nBCRef]
	x[nRefC] = (k.gc[nRefC]*v[nRefC] + gv) / k.den[nRefC]

	gv = 0
	gv += k.gRefT * k.vRef
	x[nRefT] = (k.gc[nRefT]*v[nRefT] + gv) / k.den[nRefT]

	gv = 0
	gv += k.gCSL * v[nBTIO]
	gv += k.gWD * k.vWDT
	gv += k.gRen * v[nOutBuf]
	x[nIO] = (k.gc[nIO]*v[nIO] + gv) / k.den[nIO]

	gv = 0
	gv += k.gCSL * v[nBCIO]
	gv += k.gWD * k.vWDC
	x[nIOB] = (k.gc[nIOB]*v[nIOB] + gv) / k.den[nIOB]

	gv = 0
	gv += k.gRen * v[nIO]
	x[nOutBuf] = (k.gc[nOutBuf]*v[nOutBuf] + gv) / k.den[nOutBuf]
}

// Precharge runs one precharge/equalize phase.
func (m *Model) Precharge() error {
	m.run(m.P.Tech.TPre, phase{pre: true, dref: true})
	return nil
}

// access mirrors dram.Column: release precharge, raise word lines, share,
// then sense (which also restores).
func (m *Model) access(cell int) phase {
	t := m.P.Tech
	ph := phase{dwlc: true}
	if cell == 0 {
		ph.wl0 = true
	} else {
		ph.wl1 = true
	}
	m.run(t.TSettle, phase{})
	m.run(t.TShare, ph)
	ph.sen = true
	m.run(t.TSense, ph)
	return ph
}

// closeOp drops the word lines, then the SA.
func (m *Model) closeOp(ph phase) {
	t := m.P.Tech
	ph.wl0, ph.wl1, ph.dwlc = false, false, false
	m.run(t.TClose, ph)
	ph.sen = false
	m.run(t.TClose, ph)
}

// Write performs a w0/w1 to the cell (read-modify-write, like the
// electrical controller).
func (m *Model) Write(cell, bit int) error {
	if bit != 0 && bit != 1 {
		panic(fmt.Sprintf("behav: write data %d out of range", bit))
	}
	t := m.P.Tech
	if err := m.Precharge(); err != nil {
		return err
	}
	ph := m.access(cell)
	ph.csl, ph.wen, ph.wdata = true, true, bit
	m.run(t.TWrite, ph)
	ph.csl, ph.wen = false, false
	m.run(t.TSettle, ph)
	m.closeOp(ph)
	return nil
}

// Read performs a read and returns the output-buffer value.
func (m *Model) Read(cell int) (int, error) {
	t := m.P.Tech
	if err := m.Precharge(); err != nil {
		return 0, err
	}
	ph := m.access(cell)
	ph.csl, ph.ren = true, true
	m.run(t.TIO, ph)
	ph.csl, ph.ren = false, false
	m.run(t.TSettle, ph)
	m.closeOp(ph)
	return m.OutputBit(), nil
}
