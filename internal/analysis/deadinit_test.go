package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/memtest/partialfaults/internal/defect"
	"github.com/memtest/partialfaults/internal/dram"
	"github.com/memtest/partialfaults/internal/fp"
	"github.com/memtest/partialfaults/internal/numeric"
)

// The dead-init contract (see Memory.ForceVictim): when the floating
// group contains the victim storage net, SetFloat overwrites whatever
// ForceVictim wrote, so the column's whole state — and every outcome
// after it — is the same for ForceVictim(0), ForceVictim(1) and no
// ForceVictim at all. evalSOS drops such an init; these tests check the
// contract on the electrical column bit for bit, and that the rule is
// never applied to a group where the init matters. The analytical
// column has the same test in package behav.

// contractOp is one step of a random sequence: 'w' write, 'r' read,
// 'i' idle.
type contractOp struct {
	kind       byte
	cell, data int
}

func (o contractOp) String() string { return fmt.Sprintf("%c%d:%d", o.kind, o.cell, o.data) }

func randomContractOps(rng *rand.Rand, maxLen int) []contractOp {
	ops := make([]contractOp, rng.Intn(maxLen+1))
	for i := range ops {
		ops[i] = contractOp{kind: "wri"[rng.Intn(3)], cell: rng.Intn(2), data: rng.Intn(2)}
	}
	return ops
}

// applyContractOp runs one op and returns what it observed: the read
// value for reads, -1 otherwise.
func applyContractOp(mem Memory, op contractOp) (int, error) {
	switch op.kind {
	case 'w':
		return -1, mem.Write(op.cell, op.data)
	case 'r':
		return mem.Read(op.cell)
	}
	return -1, mem.Idle()
}

// initRuns drives three memories built at (open, rdef) — one forced to
// 0, one forced to 1, one never forced — through SetFloat(nets, u) and
// ops, and returns the first step at which their state bits, victim
// bits or observations differ ("" when they never do). state must
// return the bits of every net voltage of a memory, by net name.
func initRuns(t *testing.T, factory Factory, open defect.Open, rdef float64, nets []string, u float64, ops []contractOp, state func(Memory) map[string]uint64) string {
	t.Helper()
	mems := make([]Memory, 3)
	for i := range mems {
		mem, err := factory(open, rdef)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := mem.(Releaser); ok {
			defer r.Release()
		}
		mems[i] = mem
	}
	mems[0].ForceVictim(0)
	mems[1].ForceVictim(1)
	for _, m := range mems {
		m.SetFloat(nets, u)
	}
	compare := func(step string, obs [3]int) string {
		want, wantBit := state(mems[2]), mems[2].VictimBit()
		for i, m := range mems[:2] {
			got := state(m)
			for n := range want {
				if got[n] != want[n] {
					return fmt.Sprintf("after %s: init %d net %s bits %#x, uninitialized %#x", step, i, n, got[n], want[n])
				}
			}
			if b := m.VictimBit(); b != wantBit || obs[i] != obs[2] {
				return fmt.Sprintf("after %s: init %d victim bit %d read %d, uninitialized %d read %d", step, i, b, obs[i], wantBit, obs[2])
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
			v, err := applyContractOp(m, op)
			if err != nil {
				t.Fatalf("op %d (%s): %v", j, op, err)
			}
			obs[i] = v
		}
		if d := compare(fmt.Sprintf("op %d (%s)", j, op), obs); d != "" {
			return d
		}
	}
	return ""
}

// contractU picks trial i's floating voltage: the rails 0 and VDD, the
// values a forced init writes, come up in turn, then random values up
// to 1.4·VDD.
func contractU(rng *rand.Rand, i int, vdd float64) float64 {
	switch i % 3 {
	case 0:
		return 0
	case 1:
		return vdd
	}
	return rng.Float64() * vdd * 1.4
}

// spiceState reads every net voltage of an electrical-column memory.
func spiceState(mem Memory) map[string]uint64 {
	m := mem.(*spiceMemory)
	out := map[string]uint64{}
	for _, n := range m.col.Circuit().NodeNames() {
		out[n] = math.Float64bits(m.NetVoltage(n))
	}
	return out
}

// TestDeadInitOnlyForVictimNet pins which groups the rule covers: the
// victim storage net floats in exactly the "Memory cell" groups.
func TestDeadInitOnlyForVictimNet(t *testing.T) {
	cells := 0
	for _, o := range defect.Opens() {
		for _, g := range o.Floats {
			want := g.Var == defect.FloatMemoryCell
			if got := deadInit(g.Nets); got != want {
				t.Errorf("%s %s: deadInit %v, want %v", o.Name(), g.Var, got, want)
			}
			if want {
				cells++
			}
		}
	}
	if cells != 3 {
		t.Fatalf("%d memory-cell float groups, want 3 (Opens 1, 5, 6)", cells)
	}
}

// TestDeadInitContractSpice checks the contract on the electrical
// column for every simulated memory-cell float group, at random R_def,
// U and op sequences: once on freshly constructed columns and once on a
// pooled factory that recycles columns across trials, so reused engines
// are covered as well.
func TestDeadInitContractSpice(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 2
	}
	tech := dram.Default()
	rdefs := numeric.Logspace(1e4, 1e8, 5)
	for _, fc := range []struct {
		name    string
		factory Factory
	}{
		{"unpooled", FreshSpiceFactory(tech)},
		{"pooled", NewPooledSpiceFactory(tech)},
	} {
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			for _, o := range defect.SimulatedOpens() {
				g, ok := o.Float(defect.FloatMemoryCell)
				if !ok {
					continue
				}
				for i := 0; i < trials; i++ {
					rdef, u := rdefs[rng.Intn(len(rdefs))], contractU(rng, i, tech.VDD)
					ops := randomContractOps(rng, 5)
					if d := initRuns(t, fc.factory, o, rdef, g.Nets, u, ops, spiceState); d != "" {
						t.Errorf("%s %s R=%g U=%g %v: %s", o.Name(), g.Var, rdef, u, ops, d)
					}
				}
			}
		})
	}
}

// TestDeadInitNegativeControlSpice: on a bit-line float group the init
// survives SetFloat, so the three runs must differ and evalSOS must
// keep <0> and <1> apart. A rule applied to the wrong group fails here.
func TestDeadInitNegativeControlSpice(t *testing.T) {
	o, _ := defect.ByID(5)
	g, ok := o.Float(defect.FloatBitLine)
	if !ok {
		t.Fatal("Open 5 has no bit-line group")
	}
	factory := NewPooledSpiceFactory(dram.Default())
	if d := initRuns(t, factory, o, 1e6, g.Nets, 1.0, nil, spiceState); d == "" {
		t.Fatal("bit-line float: the init left no trace, the negative control is void")
	}
	var f [2]int
	for b, init := range []fp.Init{fp.Init0, fp.Init1} {
		out, err := evalSOS("", factory, o, 1e6, g.Nets, 1.0, fp.NewSOS(init), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		f[b] = out.F
	}
	if f[0] == f[1] {
		t.Fatalf("bit-line float: <0> and <1> both end in %d; the init was dropped", f[0])
	}
}
