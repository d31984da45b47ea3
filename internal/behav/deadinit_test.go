package behav

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/memtest/partialfaults/internal/analysis"
	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/numeric"
)

// The analytical column's half of the dead-init contract test (the
// electrical column's lives in package analysis): with the victim
// storage net in the floating group, ForceVictim(0), ForceVictim(1) and
// no ForceVictim leave the model in bit-identical states after
// SetFloat, and after every op that follows.

// modelNets lists every named net of the model in a fixed order.
func modelNets() []string {
	names := make([]string, 0, len(netIndex))
	for n := range netIndex {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// firstInitDifference drives three memories — forced to 0, forced to
// 1, never forced — through SetFloat(nets, u) and ops, and describes
// the first step at which their net voltage bits, victim bits or read
// values differ ("" when they never do). ops are (kind, cell, data)
// with kind 'w' write, 'r' read or 'i' idle.
func firstInitDifference(t *testing.T, open defect.Open, rdef float64, nets []string, u float64, ops [][3]int) string {
	t.Helper()
	factory := NewFactory(DefaultParams())
	var mems [3]*memory
	for i := range mems {
		mem, err := factory(open, rdef)
		if err != nil {
			t.Fatal(err)
		}
		mems[i] = mem.(*memory)
	}
	mems[0].ForceVictim(0)
	mems[1].ForceVictim(1)
	for _, m := range mems {
		m.SetFloat(nets, u)
	}
	names := modelNets()
	compare := func(step string, obs [3]int) string {
		for i := 0; i < 2; i++ {
			for _, n := range names {
				got, want := math.Float64bits(mems[i].m.Voltage(n)), math.Float64bits(mems[2].m.Voltage(n))
				if got != want {
					return fmt.Sprintf("after %s: init %d net %s bits %#x, uninitialized %#x", step, i, n, got, want)
				}
			}
			if mems[i].VictimBit() != mems[2].VictimBit() || obs[i] != obs[2] {
				return fmt.Sprintf("after %s: init %d victim bit %d read %d, uninitialized %d read %d",
					step, i, mems[i].VictimBit(), obs[i], mems[2].VictimBit(), obs[2])
			}
		}
		return ""
	}
	if d := compare("setup", [3]int{}); d != "" {
		return d
	}
	for j, op := range ops {
		var obs [3]int
		for i, m := range mems {
			var err error
			obs[i] = -1
			switch op[0] {
			case 'w':
				err = m.Write(op[1], op[2])
			case 'r':
				obs[i], err = m.Read(op[1])
			default:
				err = m.Idle()
			}
			if err != nil {
				t.Fatalf("op %d %c%d:%d: %v", j, op[0], op[1], op[2], err)
			}
		}
		if d := compare(fmt.Sprintf("op %d (%c%d:%d)", j, op[0], op[1], op[2]), obs); d != "" {
			return d
		}
	}
	return ""
}

func TestDeadInitContractBehav(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rdefs := numeric.Logspace(1e3, 1e9, 13)
	vdd := DefaultParams().Tech.VDD
	groups := 0
	for _, o := range defect.SimulatedOpens() {
		g, ok := o.Float(defect.FloatMemoryCell)
		if !ok {
			continue
		}
		groups++
		for trial := 0; trial < 40; trial++ {
			// The rails 0 and VDD, the values a forced init writes, come
			// up in turn, then random values up to 1.4·VDD.
			rdef, u := rdefs[rng.Intn(len(rdefs))], []float64{0, vdd, rng.Float64() * vdd * 1.4}[trial%3]
			ops := make([][3]int, rng.Intn(7))
			for i := range ops {
				ops[i] = [3]int{int("wri"[rng.Intn(3)]), rng.Intn(2), rng.Intn(2)}
			}
			if d := firstInitDifference(t, o, rdef, g.Nets, u, ops); d != "" {
				t.Errorf("%s %s R=%g U=%g: %s", o.Name(), g.Var, rdef, u, d)
			}
		}
	}
	if groups != 3 {
		t.Fatalf("%d memory-cell float groups simulated, want 3", groups)
	}
}

// TestDeadInitNegativeControlBehav: on a bit-line float group the init
// survives SetFloat and changes what the column holds.
func TestDeadInitNegativeControlBehav(t *testing.T) {
	o, _ := defect.ByID(6)
	g, ok := o.Float(defect.FloatBitLine)
	if !ok {
		t.Fatal("Open 6 has no bit-line group")
	}
	if d := firstInitDifference(t, o, 1e6, g.Nets, 1.0, [][3]int{{'i', 0, 0}}); d == "" {
		t.Fatal("bit-line float: the init left no trace, the negative control is void")
	}
	var f [2]int
	for b := range f {
		out, err := analysis.RunSOS(NewFactory(DefaultParams()), o, 1e6, g.Nets, 1.0, analysis.StaticSOSes()[b])
		if err != nil {
			t.Fatal(err)
		}
		f[b] = out.F
	}
	if f[0] == f[1] {
		t.Fatalf("bit-line float: both inits end in %d", f[0])
	}
}
