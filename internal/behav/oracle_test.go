package behav

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/memtest/partialfaults/internal/numeric"
)

// oracle is the reference Jacobi-implicit integrator the step kernel
// must reproduce bit for bit: it rebuilds the phase's resistive network
// every step, accumulating each term into per-node sums in source
// order. It is kept as a test oracle only; production runs the kernel.
type oracle struct {
	m           *Model
	accG, accGV [numNodes]float64
}

// run mirrors Model.run's step count and clock.
func (o *oracle) run(dur float64, ph phase) {
	steps := int(dur/o.m.P.DT + 0.5)
	if steps < 1 {
		steps = 1
	}
	dt := dur / float64(steps)
	for s := 0; s < steps; s++ {
		o.step(dt, ph)
	}
}

// pair accumulates a resistive connection between nodes a and b.
func (o *oracle) pair(a, b int, r float64) {
	g := 1 / r
	va, vb := o.m.v[a], o.m.v[b]
	o.accG[a] += g
	o.accGV[a] += g * vb
	o.accG[b] += g
	o.accGV[b] += g * va
}

// src accumulates a resistive connection from node a to a fixed source.
func (o *oracle) src(a int, vs, r float64) {
	g := 1 / r
	o.accG[a] += g
	o.accGV[a] += g * vs
}

// wlFraction maps the victim's gate voltage to an access-conductance
// fraction in [0,1].
func (o *oracle) wlFraction() float64 {
	t := o.m.P.Tech
	von := o.m.P.WLOnFraction * t.VPP
	return numeric.Clamp((o.m.v[nWL0Gate]-1.0)/(von-1.0), 0, 1)
}

func (o *oracle) step(dt float64, ph phase) {
	m := o.m
	t := m.P.Tech
	rw := m.P.RWire
	site := func(i int) float64 {
		if r := m.sites[i]; r > rw {
			return r
		}
		return rw
	}
	for i := range o.accG {
		o.accG[i] = 0
		o.accGV[i] = 0
	}

	// Word-line gate follows its driver through the Open 9 site.
	wlTarget := 0.0
	if ph.wl0 {
		wlTarget = t.VPP
	}
	o.src(nWL0Gate, wlTarget, m.sites[sOpen9]+100)

	// Bit-line chains (Open 4, 5, 6, 8 sites on BT).
	o.pair(nBTPre, nBTCell, site(sOpen4))
	o.pair(nBTCell, nBTRef, site(sOpen5))
	o.pair(nBTRef, nBTSA, site(sOpen6))
	o.pair(nBTSA, nBTIO, site(sOpen8))
	o.pair(nBCPre, nBCCell, rw)
	o.pair(nBCCell, nBCRef, rw)
	o.pair(nBCRef, nBCSA, rw)
	o.pair(nBCSA, nBCIO, rw)

	if ph.pre {
		o.src(nBTPre, t.VBLEQ, m.P.RPre+m.sites[sOpen3])
		o.src(nBCPre, t.VBLEQ, m.P.RPre)
	}
	if ph.dref {
		o.src(nRefC, t.VRefCell, m.P.RAccess+m.sites[sOpen2])
		o.src(nRefT, t.VRefCell, m.P.RAccess)
	}

	// Victim access device: conductance scales with the (possibly
	// floating) gate voltage; in series with the Open 1 site.
	if frac := o.wlFraction(); frac > 1e-6 {
		o.pair(nBTCell, nCell0, m.P.RAccess/frac+m.sites[sOpen1])
	}
	if ph.wl1 {
		o.pair(nBTCell, nCell1, m.P.RAccess)
	}
	if ph.dwlc {
		o.pair(nBCRef, nRefC, m.P.RAccess+m.sites[sOpen2])
	}

	if ph.sen {
		// Rule-based regenerative sense amplifier with the Open 7 site
		// in the pull-down (NMOS) path. The input-referred offset makes
		// zero differential resolve to 1.
		delta := m.v[nBTSA] - m.v[nBCSA] + m.P.VOffset
		rDown := m.P.RSA + m.sites[sOpen7]
		if delta >= 0 {
			o.src(nBTSA, t.VDD, m.P.RSA)
			o.src(nBCSA, 0, rDown)
		} else {
			o.src(nBCSA, t.VDD, m.P.RSA)
			o.src(nBTSA, 0, rDown)
		}
	}

	if ph.csl {
		o.pair(nBTIO, nIO, m.P.RCSL)
		o.pair(nBCIO, nIOB, m.P.RCSL)
	}
	if ph.wen {
		hi, lo := 0.0, t.VDD
		if ph.wdata == 1 {
			hi, lo = t.VDD, 0
		}
		o.src(nIO, hi, t.RWriteDriver)
		o.src(nIOB, lo, t.RWriteDriver)
	}
	if ph.ren {
		o.pair(nIO, nOutBuf, t.ROutSwitch)
	}

	// Short/bridge sites (negligible conductance when healthy).
	o.src(nCell0, 0, m.sites[sShortCellGnd])
	o.src(nBTCell, t.VDD, m.sites[sShortBLVdd])
	o.pair(nBTCell, nBCCell, m.sites[sBridgeBLBL])
	o.pair(nCell0, nCell1, m.sites[sBridgeCells])

	// Jacobi-implicit nodal update.
	for n := 0; n < numNodes; n++ {
		gc := m.cap[n] / dt
		m.v[n] = (gc*m.v[n] + o.accGV[n]) / (gc + o.accG[n])
	}
	m.time += dt
}

// NumPhaseFlags is the number of bits KernelMismatch reads from flags:
// pre, dref, wl0, wl1, dwlc, sen, csl, ren, wen, then the write data.
const NumPhaseFlags = 10

func phaseOf(flags uint16) phase {
	bit := func(i uint) bool { return flags>>i&1 == 1 }
	ph := phase{
		pre: bit(0), dref: bit(1),
		wl0: bit(2), wl1: bit(3), dwlc: bit(4),
		sen: bit(5), csl: bit(6), ren: bit(7), wen: bit(8),
	}
	if bit(9) {
		ph.wdata = 1
	}
	return ph
}

// KernelMismatch builds a model under p with random site resistances
// (opens below and above the wire floor, shorts and bridges absent or
// present) and random node voltages and clock, all drawn from seed, and
// then runs one phase of a random number of steps through the kernel
// and through the oracle. If u is finite it overwrites a random subset
// of nodes, so a fuzzer can reach any voltage, including -0. It returns
// "" when all 18 node voltages and the clock agree in every bit, and
// otherwise a description of the first difference.
func KernelMismatch(p Params, flags uint16, seed int64, u float64) string {
	rng := rand.New(rand.NewSource(seed))
	m := New(p)
	logUniform := func(lo, hi float64) float64 {
		return math.Pow(10, lo+(hi-lo)*rng.Float64())
	}
	for i := range m.sites {
		switch {
		case shortSites[i]:
			if rng.Intn(2) == 0 {
				m.sites[i] = logUniform(0, 9)
			}
		case rng.Intn(4) > 0:
			m.sites[i] = logUniform(0, 10)
		}
	}
	vmax := p.Tech.VPP + 0.5
	for n := range m.v {
		switch rng.Intn(8) {
		case 0:
			m.v[n] = 0
		case 1:
			m.v[n] = math.Copysign(0, -1)
		case 2:
			m.v[n] = p.Tech.VDD
		default:
			m.v[n] = -0.5 + (vmax+0.5)*rng.Float64()
		}
		if !math.IsNaN(u) && !math.IsInf(u, 0) && rng.Intn(3) == 0 {
			m.v[n] = u
		}
	}
	m.time = 1e-6 * rng.Float64()
	dur := p.DT * (0.4 + 80*rng.Float64())

	ref := *m
	ph := phaseOf(flags)
	m.run(dur, ph)
	(&oracle{m: &ref}).run(dur, ph)

	for n := range m.v {
		if got, want := math.Float64bits(m.v[n]), math.Float64bits(ref.v[n]); got != want {
			return fmt.Sprintf("flags %#x seed %d: node %d = %v (%#x), oracle %v (%#x)",
				flags, seed, n, m.v[n], got, ref.v[n], want)
		}
	}
	if math.Float64bits(m.time) != math.Float64bits(ref.time) {
		return fmt.Sprintf("flags %#x seed %d: time %v, oracle %v", flags, seed, m.time, ref.time)
	}
	return ""
}
