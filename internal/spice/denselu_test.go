package spice_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/numeric"
	"github.com/memtest/partialfaults/internal/spice"
)

// stepTrace records the bits of the whole solution vector and the clock
// after every transient step of a column.
type stepTrace struct{ bits []uint64 }

func (s *stepTrace) observe(e *spice.Engine) {
	x, t := e.State()
	for _, v := range x {
		s.bits = append(s.bits, math.Float64bits(v))
	}
	s.bits = append(s.bits, math.Float64bits(t))
}

// TestPatternLUMatchesDenseOnColumn drives two pooled columns through the
// same random operation sequences with forced floating voltages, at every
// simulated open and several R_def, one on the pattern-locked LU and one
// on the reference dense elimination and pinned-coupling fold, and requires every step's solution
// and clock to be bit-identical.
func TestPatternLUMatchesDenseOnColumn(t *testing.T) {
	if testing.Short() {
		t.Skip("electrical differential run")
	}
	tech := dram.Default()
	sparseCol, denseCol := dram.MustNewColumn(tech), dram.MustNewColumn(tech)
	spice.UseDenseReference(denseCol.Engine())
	var sparseTr, denseTr stepTrace
	sparseCol.Observe, denseCol.Observe = sparseTr.observe, denseTr.observe

	rng := rand.New(rand.NewSource(1))
	rdefs := []float64{1e3, 1e5, 3e5, 1e6, 1e8}
	for _, o := range defect.SimulatedOpens() {
		for _, rdef := range rdefs {
			// Draw the op sequence once and replay it on both columns.
			type op struct {
				kind, cell, bit int
				u               float64
				nets            []string
			}
			ops := make([]op, 4)
			for i := range ops {
				g := o.Floats[rng.Intn(len(o.Floats))]
				ops[i] = op{kind: rng.Intn(3), cell: rng.Intn(2), bit: rng.Intn(2),
					u: rng.Float64() * tech.VDD, nets: g.Nets}
			}
			run := func(c *dram.Column, i int) (string, error) {
				if i < 0 {
					c.Reset()
					c.SetSiteResistance(o.Site, rdef)
					for _, x := range o.Extra {
						r := x.Ohms
						if r == 0 {
							r = rdef
						}
						c.SetSiteResistance(x.Site, r)
					}
					return "power-up", c.PowerUp()
				}
				p := ops[i]
				switch p.kind {
				case 0:
					c.SetNodeVoltages(p.u, p.nets...)
					return fmt.Sprintf("float %v=%.3f, w%d c%d", p.nets, p.u, p.bit, p.cell), c.Write(p.cell, p.bit)
				case 1:
					return fmt.Sprintf("w%d c%d", p.bit, p.cell), c.Write(p.cell, p.bit)
				default:
					c.SetNodeVoltages(p.u, p.nets...)
					bit, err := c.Read(p.cell)
					return fmt.Sprintf("float %v=%.3f, r c%d -> %d", p.nets, p.u, p.cell, bit), err
				}
			}
			for i := -1; i < len(ops); i++ {
				sparseTr.bits, denseTr.bits = sparseTr.bits[:0], denseTr.bits[:0]
				desc, errS := run(sparseCol, i)
				descD, errD := run(denseCol, i)
				where := fmt.Sprintf("%s R_def=%g op %d (%s)", o.Name(), rdef, i, desc)
				if desc != descD || fmt.Sprint(errS) != fmt.Sprint(errD) {
					t.Fatalf("%s: pattern LU %q/%v, dense %q/%v", where, desc, errS, descD, errD)
				}
				if len(sparseTr.bits) != len(denseTr.bits) {
					t.Fatalf("%s: %d vs %d traced words", where, len(sparseTr.bits), len(denseTr.bits))
				}
				for k := range sparseTr.bits {
					if sparseTr.bits[k] != denseTr.bits[k] {
						t.Fatalf("%s: word %d of the step trace differs: %#x vs dense %#x",
							where, k, sparseTr.bits[k], denseTr.bits[k])
					}
				}
			}
		}
	}
}

// columnSystem returns a copy of the reduced system of a healthy column's
// last Newton iteration after a write, and the column's workspace, whose
// pattern has grown over the power-up and the write.
func columnSystem(tb testing.TB) (*numeric.Matrix, []float64, *numeric.Workspace) {
	c := dram.MustNewColumn(dram.Default())
	if err := c.PowerUp(); err != nil {
		tb.Fatal(err)
	}
	if err := c.Write(0, 1); err != nil {
		tb.Fatal(err)
	}
	a, b, ws := spice.ReducedSystem(c.Engine())
	return a.Clone(), append([]float64(nil), b...), ws
}

func BenchmarkColumnLU(b *testing.B) {
	a, rhs, ws := columnSystem(b)
	x := make([]float64, a.Rows())
	for _, bc := range []struct {
		name      string
		factorize func(*numeric.Matrix) error
	}{{"pattern", ws.Factorize}, {"dense", ws.FactorizeDense}} {
		b.Run(bc.name+"/factorize", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.factorize(a); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"/solve", func(b *testing.B) {
			if err := bc.factorize(a); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Solve(rhs, x)
			}
		})
	}
}
