package device

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/circuit"
)

// MOSParams holds the level-1 (Shichman–Hodges) model parameters.
type MOSParams struct {
	// Vt0 is the zero-bias threshold voltage (positive for NMOS,
	// negative for PMOS).
	Vt0 float64
	// Kp is the transconductance parameter µ·Cox in A/V².
	Kp float64
	// Lambda is the channel-length modulation in 1/V.
	Lambda float64
	// W and L are the channel width and length in meters.
	W, L float64
}

// Beta returns Kp·W/L.
func (p MOSParams) Beta() float64 { return p.Kp * p.W / p.L }

// DefaultNMOS returns representative 0.35 µm-class NMOS parameters.
func DefaultNMOS() MOSParams {
	return MOSParams{Vt0: 0.55, Kp: 170e-6, Lambda: 0.05, W: 1e-6, L: 0.35e-6}
}

// DefaultPMOS returns representative 0.35 µm-class PMOS parameters.
func DefaultPMOS() MOSParams {
	return MOSParams{Vt0: -0.65, Kp: 58e-6, Lambda: 0.05, W: 2e-6, L: 0.35e-6}
}

// MOSFET is a three-terminal (bulk tied to rail) level-1 MOSFET.
// The nonlinear drain current is linearized around the current Newton
// iterate using gm and gds, stamped as conductance + VCCS + companion
// current — the standard SPICE treatment.
type MOSFET struct {
	name    string
	d, g, s int
	pmos    bool
	p       MOSParams
}

// NewNMOS creates an n-channel MOSFET with drain d, gate g, source s.
func NewNMOS(name string, d, g, s int, p MOSParams) *MOSFET {
	if p.Vt0 < 0 {
		panic(fmt.Sprintf("device: NMOS %s requires Vt0 >= 0", name))
	}
	return &MOSFET{name: name, d: d, g: g, s: s, p: p}
}

// NewPMOS creates a p-channel MOSFET with drain d, gate g, source s.
func NewPMOS(name string, d, g, s int, p MOSParams) *MOSFET {
	if p.Vt0 > 0 {
		panic(fmt.Sprintf("device: PMOS %s requires Vt0 <= 0", name))
	}
	return &MOSFET{name: name, d: d, g: g, s: s, pmos: true, p: p}
}

// Name implements circuit.Element.
func (m *MOSFET) Name() string { return m.name }

// Params returns the model parameters.
func (m *MOSFET) Params() MOSParams { return m.p }

// level1 evaluates the Shichman–Hodges drain current and its partials for
// an NMOS-polarity device with vds >= 0.
func level1(beta, vt, lambda, vgs, vds float64) (id, gm, gds float64) {
	vov := vgs - vt
	if vov <= 0 {
		return 0, 0, 0 // cutoff
	}
	clm := 1 + lambda*vds
	if vds < vov {
		// Triode region.
		id = beta * (vov*vds - vds*vds/2) * clm
		gm = beta * vds * clm
		gds = beta*(vov-vds)*clm + beta*(vov*vds-vds*vds/2)*lambda
		return id, gm, gds
	}
	// Saturation.
	id = beta / 2 * vov * vov * clm
	gm = beta * vov * clm
	gds = beta / 2 * vov * vov * lambda
	return id, gm, gds
}

// operatingPoint computes the device current in NMOS-normalized (primed)
// coordinates. It returns the primed drain current and derivatives, the
// real-space effective drain/source nodes (after symmetry swap), and the
// polarity sign (−1 for PMOS).
func (m *MOSFET) operatingPoint(v func(int) float64) (id, gm, gds float64, dEff, sEff int, sign float64) {
	sign = 1.0
	if m.pmos {
		sign = -1
	}
	vd := sign * v(m.d)
	vg := sign * v(m.g)
	vs := sign * v(m.s)
	vt := m.p.Vt0
	if m.pmos {
		vt = -m.p.Vt0 // magnitude in primed (NMOS) polarity
	}
	dEff, sEff = m.d, m.s
	if vd < vs {
		// Symmetric device: swap so primed vds >= 0.
		vd, vs = vs, vd
		dEff, sEff = m.s, m.d
	}
	id, gm, gds = level1(m.p.Beta(), vt, m.p.Lambda, vg-vs, vd-vs)
	return id, gm, gds, dEff, sEff, sign
}

// Stamp implements circuit.Element.
func (m *MOSFET) Stamp(ctx *circuit.StampContext) {
	gds, gm, ieq, d, s := m.linearize(ctx)
	ctx.StampConductance(d, s, gds)
	ctx.StampTransconductance(d, s, m.g, s, gm)
	ctx.StampCurrent(d, s, ieq)
}

// linearize returns the channel conductance, the transconductance and the
// companion current of the device at the current iterate, with the
// effective drain and source.
//
// Derivation: with primed voltages v' = sign·v, the real-space channel
// current from the effective drain to the effective source is
// i = sign·f(v'gs, v'ds). Expanding around the iterate,
// Δi = gm·(Δvg − Δvs) + gds·(Δvd − Δvs) in REAL voltages (the two sign
// factors cancel), so the conductance and VCCS are stamped unsigned and
// only the companion constant carries the polarity.
func (m *MOSFET) linearize(ctx *circuit.StampContext) (gds, gm, ieq float64, d, s int) {
	id, gm, gds, d, s, sign := m.operatingPoint(ctx.V)
	// Primed-space controlling voltages at the iterate.
	vgsP := sign*ctx.V(m.g) - sign*ctx.V(s)
	vdsP := sign*ctx.V(d) - sign*ctx.V(s)
	ieq = sign * (id - gm*vgsP - gds*vdsP)
	return gds, gm, ieq, d, s
}

// StampNodes implements circuit.SlotStamper: rows {d, s} and columns
// {d, g, s}.
func (m *MOSFET) StampNodes(buf []int) (rows, cols []int) {
	buf = append(buf[:0], m.d, m.s, m.d, m.g, m.s)
	return buf[:2], buf[2:]
}

// StampSlots implements circuit.SlotStamper: Stamp's contributions in
// Stamp's order. When the channel conducts from s to d the effective
// drain and source trade places, and so do their rows and columns.
func (m *MOSFET) StampSlots(ctx *circuit.StampContext, a, b []circuit.Slot) {
	gds, gm, ieq, d, s := m.linearize(ctx)
	dr, sr, dc, sc := 0, 1, 0, 2
	if d != m.d {
		dr, sr, dc, sc = 1, 0, 2, 0
	}
	a = a[:6]
	// StampConductance(d, s, gds).
	ctx.AddSlot(a[dr*3+dc], d, gds)
	ctx.AddSlot(a[sr*3+sc], s, gds)
	ctx.AddSlot(a[dr*3+sc], s, -gds)
	ctx.AddSlot(a[sr*3+dc], d, -gds)
	// StampTransconductance(d, s, g, s, gm).
	ctx.AddSlot(a[dr*3+1], m.g, gm)
	ctx.AddSlot(a[dr*3+sc], s, -gm)
	ctx.AddSlot(a[sr*3+1], m.g, -gm)
	ctx.AddSlot(a[sr*3+sc], s, gm)
	// StampCurrent(d, s, ieq).
	ctx.AddRHSSlot(b[dr], -ieq)
	ctx.AddRHSSlot(b[sr], ieq)
}

// DrainCurrent returns the real-space current flowing from the effective
// drain to the effective source for a solved voltage accessor.
func (m *MOSFET) DrainCurrent(v func(int) float64) float64 {
	id, _, _, _, _, sign := m.operatingPoint(v)
	return sign * id
}
