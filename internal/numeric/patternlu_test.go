package numeric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// palette holds the entry values the differential tests draw from: small
// integers and halves so that eliminations cancel to exact zeros, both
// zero signs, non-finite values and extremes that overflow or underflow.
var palette = []float64{
	0, 1, -1, 2, -2, 0.5, -0.5, 3, math.Copysign(0, -1),
	math.NaN(), math.Inf(1), math.Inf(-1), 1e-300, -1e300, 5e-324, 7,
}

// luMismatch factorizes a with ws (pattern-locked) and with a fresh
// workspace's dense elimination, solves every b with both, and describes
// the first bitwise difference in the errors or the solutions.
func luMismatch(ws *Workspace, a *Matrix, bs [][]float64) string {
	ref := NewWorkspace(a.Rows())
	return solveMismatch(ws, ref, ref.FactorizeDense(a), ws.Factorize(a), bs)
}

// compactMismatch is luMismatch for the compact input in of ws's pattern,
// against the dense elimination of in scattered over +0.
func compactMismatch(ws *Workspace, in []float64, bs [][]float64) string {
	a := NewMatrix(ws.n, ws.n)
	ws.Scatter(in, a)
	ref := NewWorkspace(ws.n)
	return solveMismatch(ws, ref, ref.FactorizeDense(a), ws.FactorizeCompact(in), bs)
}

// solveMismatch compares the factorization errors of ws and the dense
// reference ref and, when both succeeded, their solves of every b.
func solveMismatch(ws, ref *Workspace, errD, errS error, bs [][]float64) string {
	if errD != errS {
		return fmt.Sprintf("errors differ: dense %v, pattern %v", errD, errS)
	}
	if errD != nil {
		return ""
	}
	n := ws.n
	for bi, b := range bs {
		want := make([]float64, n)
		ref.Solve(b, want)
		got := make([]float64, n)
		if bi%2 == 1 {
			// Solve in place: b and x alias.
			copy(got, b)
			ws.Solve(got, got)
		} else {
			ws.Solve(b, got)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Sprintf("rhs %d: x[%d] = %v (%#x), dense %v (%#x)",
					bi, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	return ""
}

// sysOpts selects the extra features of a random system.
type sysOpts struct {
	special bool // draw entries from palette, ±0 and non-finite included
	swap    bool // make one sub-diagonal entry beat its diagonal
	outside int  // entries to add outside mask
}

// randomSystem draws an n×n matrix whose nonzeros lie in mask (plus the
// diagonal) with the features o selects, and a few right-hand sides.
func randomSystem(rng *rand.Rand, n int, mask []bool, o sysOpts) (*Matrix, [][]float64) {
	draw := func() float64 {
		if o.special && rng.Intn(3) == 0 {
			return palette[rng.Intn(len(palette))]
		}
		return float64(rng.Intn(9)-4) / 2
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if i != j && mask[i*n+j] {
				v := draw()
				a.Set(i, j, v)
				if !math.IsNaN(v) {
					sum += math.Abs(v)
				}
			}
		}
		d := sum + 1
		if o.special && rng.Intn(4) == 0 {
			d = draw()
		}
		if rng.Intn(2) == 0 {
			d = -d
		}
		a.Set(i, i, d)
	}
	if o.swap && n > 1 {
		k := rng.Intn(n - 1)
		i := k + 1 + rng.Intn(n-k-1)
		a.Set(i, k, 4*math.Abs(a.At(k, k))+8)
	}
	for e := 0; e < o.outside; e++ {
		a.Set(rng.Intn(n), rng.Intn(n), draw()+0.25)
	}
	bs := make([][]float64, 3)
	for r := range bs {
		b := make([]float64, n)
		for i := range b {
			switch {
			case o.special && rng.Intn(6) == 0:
				b[i] = palette[rng.Intn(len(palette))]
			case rng.Intn(3) == 0:
				b[i] = 0
			default:
				b[i] = rng.NormFloat64()
			}
		}
		bs[r] = b
	}
	return a, bs
}

func randomMask(rng *rand.Rand, n int) []bool {
	density := 0.02 + 0.3*rng.Float64()
	mask := make([]bool, n*n)
	for p := range mask {
		mask[p] = rng.Float64() < density
	}
	return mask
}

func TestPatternLUMatchesDense(t *testing.T) {
	cases := []struct {
		name string
		o    sysOpts
	}{
		{"plain", sysOpts{}},
		{"forced-swap", sysOpts{swap: true}},
		{"signed-zeros-and-non-finite", sysOpts{special: true}},
		{"outside-pattern", sysOpts{outside: 2}},
		{"everything", sysOpts{special: true, swap: true, outside: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(c.name))))
			sparse := 0
			for trial := 0; trial < 300; trial++ {
				n := 1 + rng.Intn(40)
				mask := randomMask(rng, n)
				ws := NewWorkspace(n)
				// A run of matrices on one workspace: the first installs
				// the pattern, the later ones reuse or grow it.
				for step := 0; step < 4; step++ {
					o := c.o
					if step == 0 {
						o.outside = 0
					}
					a, bs := randomSystem(rng, n, mask, o)
					if d := luMismatch(ws, a, bs); d != "" {
						t.Fatalf("trial %d step %d (n=%d): %s\n%v", trial, step, n, d, a)
					}
					if !ws.dense {
						sparse++
					}
				}
			}
			if sparse == 0 {
				t.Error("no factorization stayed on the pattern-locked path")
			}
		})
	}
}

// TestPatternLUNegativeZeroInput pins the one case where a -0 input inside
// the pattern matters: the dense elimination turns U[1][2] = -0 into +0
// (-0 - (-1)·(+0)), and a -0 right-hand side makes the solve read that
// sign.
func TestPatternLUNegativeZeroInput(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a := NewMatrix(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 0, -1)
	a.Set(1, 1, 1)
	a.Set(1, 2, negZero)
	a.Set(2, 2, 1)
	b := []float64{negZero, negZero, 2}
	if d := luMismatch(NewWorkspace(3), a, [][]float64{b}); d != "" {
		t.Fatal(d)
	}
}

// TestPatternLUPlainStaysSparse pins that finite, swap-free systems never
// fall back to the dense elimination, and that a nonzero outside the
// installed pattern grows it instead.
func TestPatternLUPlainStaysSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 25
	mask := randomMask(rng, n)
	ws := NewWorkspace(n)
	for step := 0; step < 20; step++ {
		o := sysOpts{}
		if step == 10 {
			o.outside = 3
		}
		a, bs := randomSystem(rng, n, mask, o)
		before := len(ws.pos)
		if d := luMismatch(ws, a, bs); d != "" {
			t.Fatalf("step %d: %s", step, d)
		}
		if ws.dense {
			t.Fatalf("step %d fell back to the dense elimination", step)
		}
		if step == 10 && len(ws.pos) <= before {
			t.Errorf("entries outside the pattern did not grow it (%d entries)", len(ws.pos))
		}
	}
}

// TestPatternLUAllocsNothing pins that once the pattern is stable a
// factorization and solve allocate nothing.
func TestPatternLUAllocsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 25
	a, bs := randomSystem(rng, n, randomMask(rng, n), sysOpts{})
	ws := NewWorkspace(n)
	if err := ws.Factorize(a); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	allocs := testing.AllocsPerRun(100, func() {
		if err := ws.Factorize(a); err != nil {
			t.Fatal(err)
		}
		ws.Solve(bs[0], x)
	})
	if allocs != 0 {
		t.Errorf("Factorize+Solve allocates %v times per run, want 0", allocs)
	}
}

// FuzzPatternLU decodes a run of matrices and right-hand sides from the
// input (one palette byte per entry, a zero byte leaving the entry +0)
// and checks the pattern-locked LU bit-for-bit against the dense
// elimination on one reused workspace.
func FuzzPatternLU(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 0, 1, 0, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{4, 0, 2, 0, 0, 3, 1, 0, 0, 0, 0, 1, 5, 8, 0, 0, 1, 9, 10, 11, 8})
	f.Add([]byte{2, 8, 1, 1, 8, 8, 8, 1, 3, 3, 3, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%12
		data = data[1:]
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			v := palette[int(data[0])%len(palette)]
			data = data[1:]
			return v
		}
		ws := NewWorkspace(n)
		for step := 0; step < 4 && len(data) > 0; step++ {
			a := NewMatrix(n, n)
			for p := range a.data {
				a.data[p] = next()
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = next()
			}
			if d := luMismatch(ws, a, [][]float64{b, b}); d != "" {
				t.Fatalf("step %d: %s\n%v", step, d, a)
			}
		}
	})
}

// FuzzFactorizeCompact decodes a pattern (one bit per entry, reserved
// through Reserve) and a run of compact inputs and right-hand sides (one
// palette byte per value) from the input, and checks FactorizeCompact
// bit-for-bit against the dense elimination of the input scattered over
// +0 on one reused workspace whose pattern grows between steps. It also
// checks that Index agrees with the compact order and that Gather
// inverts Scatter.
func FuzzFactorizeCompact(f *testing.F) {
	f.Add([]byte{3, 0xff, 0x01, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3})
	f.Add([]byte{4, 0x21, 0x84, 0, 8, 1, 8, 1, 2, 1, 7, 1, 1, 4, 9, 10, 11})
	// Sub-diagonal entries beating the diagonal force swaps.
	f.Add([]byte{2, 0x0f, 0, 1, 15, 1, 1, 3, 15, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%12
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		ws := NewWorkspace(n)
		var bits byte
		for p := 0; p < n*n; p++ {
			if p%8 == 0 {
				bits = next()
			}
			if bits&(1<<(p%8)) != 0 {
				ws.Reserve(p/n, p%n)
			}
		}
		var in []float64
		zero := NewMatrix(n, n)
		for step := 0; step < 4 && len(data) > 0; step++ {
			if step > 0 {
				b := int(next())
				ws.Reserve(b%n, b/n%n)
			}
			in = ws.Gather(zero, in)
			if ws.Pending() || len(in) != ws.Len() {
				t.Fatalf("step %d: Gather left reservations pending or returned %d of %d values", step, len(in), ws.Len())
			}
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					if k := ws.Index(r, c); k != -1 && (k < 0 || k >= ws.Len() || ws.pos[k] != int32(r*n+c)) {
						t.Fatalf("step %d: Index(%d, %d) = %d names position %d", step, r, c, k, ws.pos[k])
					} else if k == -1 && ws.pat[r*n+c] {
						t.Fatalf("step %d: Index(%d, %d) = -1 inside the pattern", step, r, c)
					}
				}
			}
			for k := range in {
				in[k] = palette[int(next())%len(palette)]
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = palette[int(next())%len(palette)]
			}
			a := NewMatrix(n, n)
			ws.Scatter(in, a)
			for k, v := range ws.Gather(a, nil) {
				if math.Float64bits(v) != math.Float64bits(in[k]) {
					t.Fatalf("step %d: Gather(Scatter(in))[%d] = %v, want %v", step, k, v, in[k])
				}
			}
			if d := compactMismatch(ws, in, [][]float64{b, b}); d != "" {
				t.Fatalf("step %d: %s\n%v", step, d, a)
			}
		}
	})
}
