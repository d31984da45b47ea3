package spice_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/memtest/partialfaults/internal/circuit"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/device"
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
// simulated open and several R_def, one on the compiled stamp plan and the
// pattern-locked LU and one on the reference dense assembly, elimination
// and pinned-coupling fold, and requires every step's solution and clock
// to be bit-identical. It runs under backward Euler and under trapezoidal
// integration, where the static stamp is rebuilt every step. The columns
// are Reset and re-injected between runs, so the pattern grows mid-run and
// the compiled plan must discard and repeat the stamping passes that hit
// an entry outside it.
func TestPatternLUMatchesDenseOnColumn(t *testing.T) {
	if testing.Short() {
		t.Skip("electrical differential run")
	}
	for _, c := range []struct {
		name string
		trap bool
	}{{"backward-euler", false}, {"trapezoidal", true}} {
		t.Run(c.name, func(t *testing.T) {
			tech := dram.Default()
			sparseCol, denseCol := dram.MustNewColumn(tech), dram.MustNewColumn(tech)
			spice.UseDenseReference(denseCol.Engine())
			if c.trap {
				spice.UseTrapezoidal(sparseCol.Engine())
				spice.UseTrapezoidal(denseCol.Engine())
			}
			columnDifferential(t, sparseCol, denseCol)
			if spice.Regrows(sparseCol.Engine()) == 0 {
				t.Error("no stamping pass hit an entry outside the pattern; the re-stamp path did not run")
			}
		})
	}
}

// columnDifferential runs the random operation sequences of
// TestPatternLUMatchesDenseOnColumn on both columns and compares their
// step traces bit for bit.
func columnDifferential(t *testing.T, sparseCol, denseCol *dram.Column) {
	tech := sparseCol.Tech
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
					t.Fatalf("%s: compiled plan %q/%v, dense %q/%v", where, desc, errS, descD, errD)
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
// last Newton iteration after a write, scattered from the compact values
// the engine stamped, and the column's workspace, whose pattern has grown
// over the power-up and the write.
func columnSystem(tb testing.TB) (*numeric.Matrix, []float64, *numeric.Workspace) {
	c := dram.MustNewColumn(dram.Default())
	if err := c.PowerUp(); err != nil {
		tb.Fatal(err)
	}
	if err := c.Write(0, 1); err != nil {
		tb.Fatal(err)
	}
	in, b, ws := spice.ReducedSystem(c.Engine())
	a := numeric.NewMatrix(len(b), len(b))
	ws.Scatter(in, a)
	return a, append([]float64(nil), b...), ws
}

func BenchmarkColumnLU(b *testing.B) {
	a, rhs, ws := columnSystem(b)
	in := ws.Gather(a, nil)
	x := make([]float64, a.Rows())
	for _, bc := range []struct {
		name      string
		factorize func() error
	}{
		{"compact", func() error { return ws.FactorizeCompact(in) }},
		{"pattern", func() error { return ws.Factorize(a) }},
		{"dense", func() error { return ws.FactorizeDense(a) }},
	} {
		b.Run(bc.name+"/factorize", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.factorize(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"/solve", func(b *testing.B) {
			if err := bc.factorize(); err != nil {
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

// plainStamp hides an element's slot stamping, so the engine stamps it
// through the generic compiled addressing.
type plainStamp struct{ circuit.Element }

// TestGenericStampsMatchDense drives a chain of CMOS inverters whose
// transistors alternate between slot stamping and the generic compiled
// addressing (the input's gate coupling to the pinned source included),
// and requires every step's solution and clock to equal the dense
// reference's bit for bit.
func TestGenericStampsMatchDense(t *testing.T) {
	build := func() *spice.Engine {
		ckt := circuit.New()
		vdd, in := ckt.Node("vdd"), ckt.Node("in")
		ckt.MustAdd(device.NewVSource("Vdd", vdd, 0, device.DC(3.3)))
		ckt.MustAdd(device.NewVSource("Vin", in, 0, device.NewPWL(
			[2]float64{0, 0}, [2]float64{1e-9, 3.3}, [2]float64{3e-9, 3.3}, [2]float64{4e-9, 0})))
		prev := in
		for i := 0; i < 4; i++ {
			out := ckt.Node(fmt.Sprintf("n%d", i))
			var p, n circuit.Element = device.NewPMOS(fmt.Sprintf("MP%d", i), out, prev, vdd, device.DefaultPMOS()),
				device.NewNMOS(fmt.Sprintf("MN%d", i), out, prev, 0, device.DefaultNMOS())
			if i%2 == 0 {
				p = plainStamp{p}
			} else {
				n = plainStamp{n}
			}
			ckt.MustAdd(p)
			ckt.MustAdd(n)
			ckt.MustAdd(device.NewCapacitor(fmt.Sprintf("C%d", i), out, 0, 20e-15))
			prev = out
		}
		ckt.MustAdd(device.NewSwitch("S", prev, ckt.Node("load"), in, 0, 1.65, 1e3, 1e9))
		ckt.MustAdd(device.NewCapacitor("CL", ckt.Node("load"), 0, 50e-15))
		ckt.Freeze()
		return spice.MustNewEngine(ckt, spice.DefaultOptions())
	}
	sparse, dense := build(), build()
	spice.UseDenseReference(dense)
	var sparseTr, denseTr stepTrace
	for _, e := range []struct {
		e  *spice.Engine
		tr *stepTrace
	}{{sparse, &sparseTr}, {dense, &denseTr}} {
		if err := e.e.Run(5e-9, 200, e.tr.observe); err != nil {
			t.Fatal(err)
		}
	}
	if len(sparseTr.bits) != len(denseTr.bits) {
		t.Fatalf("%d vs %d traced words", len(sparseTr.bits), len(denseTr.bits))
	}
	for k := range sparseTr.bits {
		if sparseTr.bits[k] != denseTr.bits[k] {
			t.Fatalf("word %d of the step trace differs: %#x vs dense %#x", k, sparseTr.bits[k], denseTr.bits[k])
		}
	}
	if spice.Regrows(sparse) == 0 {
		t.Error("no stamping pass hit an entry outside the pattern")
	}
}
