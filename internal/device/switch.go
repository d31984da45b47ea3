package device

import (
	"fmt"

	"github.com/memtest/partialfaults/internal/circuit"
)

// Switch is a voltage-controlled resistive switch: Ron between a and b
// when v(ctrl) − v(ctrlRef) exceeds the threshold, Roff otherwise. A
// narrow linear transition band keeps the Newton iteration differentiable
// enough to converge. Switches model ideal pass/precharge control where
// full MOS detail is unnecessary.
type Switch struct {
	name          string
	a, b          int
	ctrl, ctrlRef int
	threshold     float64
	ron, roff     float64
	band          float64
}

// NewSwitch creates a switch controlled by v(ctrl) − v(ctrlRef) compared
// against threshold. Ron and Roff must be positive with Ron < Roff.
func NewSwitch(name string, a, b, ctrl, ctrlRef int, threshold, ron, roff float64) *Switch {
	if ron <= 0 || roff <= 0 || ron >= roff {
		panic(fmt.Sprintf("device: switch %s requires 0 < Ron < Roff, got %g, %g", name, ron, roff))
	}
	return &Switch{
		name: name, a: a, b: b, ctrl: ctrl, ctrlRef: ctrlRef,
		threshold: threshold, ron: ron, roff: roff, band: 0.1,
	}
}

// Name implements circuit.Element.
func (s *Switch) Name() string { return s.name }

// conductance returns the interpolated switch conductance for a control
// voltage.
func (s *Switch) conductance(vc float64) float64 {
	gon, goff := 1/s.ron, 1/s.roff
	lo, hi := s.threshold-s.band/2, s.threshold+s.band/2
	switch {
	case vc <= lo:
		return goff
	case vc >= hi:
		return gon
	default:
		t := (vc - lo) / s.band
		return goff + t*(gon-goff)
	}
}

// Stamp implements circuit.Element. The control voltage is taken from the
// current iterate, making the element weakly nonlinear; the conductance
// interpolation band keeps successive iterates consistent.
func (s *Switch) Stamp(ctx *circuit.StampContext) {
	vc := ctx.V(s.ctrl) - ctx.V(s.ctrlRef)
	ctx.StampConductance(s.a, s.b, s.conductance(vc))
}

// StampNodes implements circuit.SlotStamper: rows and columns {a, b}.
func (s *Switch) StampNodes(buf []int) (rows, cols []int) {
	buf = append(buf[:0], s.a, s.b)
	return buf, buf
}

// StampSlots implements circuit.SlotStamper: Stamp's conductance, in
// StampConductance's order.
func (s *Switch) StampSlots(ctx *circuit.StampContext, a, _ []circuit.Slot) {
	g := s.conductance(ctx.V(s.ctrl) - ctx.V(s.ctrlRef))
	a = a[:4]
	ctx.AddSlot(a[0], s.a, g)
	ctx.AddSlot(a[3], s.b, g)
	ctx.AddSlot(a[1], s.b, -g)
	ctx.AddSlot(a[2], s.a, -g)
}
