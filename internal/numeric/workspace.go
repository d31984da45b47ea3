package numeric

import (
	"math"
	"slices"
)

// negZero is the bit pattern of -0.
const negZero = 1 << 63

// Workspace is a reusable LU solve buffer for repeated factorizations of
// same-sized systems, as a Newton loop performs every iteration. It
// allocates nothing once the sparsity pattern of the matrices it sees has
// stopped growing.
//
// The factorization is pattern-locked: the workspace records which entries
// of the matrices it has seen are nonzero (plus the entries a caller
// reserves), adds the fill of elimination in natural order (no
// reordering, which would change the rounding), and compiles the
// elimination into flat index programs over a compact value array: the
// pattern's entries in row-major order. FactorizeCompact takes its input
// in that order, so a caller that knows where its entries go (Index) can
// fill it directly; Factorize gathers a dense matrix into it first. The
// numeric step then does exactly the arithmetic of the dense elimination
// (FactorizeDense) minus the updates with a zero operand, in the same
// order, so the factors and the solutions are bit-for-bit those of the
// dense elimination. The exactness argument needs three conditions, each
// checked per factorization, with the dense elimination as the fallback:
//
//   - no row swap: the pivot search over the pattern's column entries
//     must keep the diagonal (entries outside the pattern are +0 and never
//     win the dense search);
//   - finite multipliers: a skipped update m·(+0) is ±0, and subtracting
//     ±0 changes no value that is not -0, unless m is Inf or NaN;
//   - no -0 input inside the pattern: with none, no -0 ever arises in the
//     upper factor, so the dense-only updates that subtract ±0 are no-ops.
//
// A gathered nonzero outside the pattern (bitwise: -0 counts) grows the
// pattern, which is never shrunk, and recompiles the programs; so does a
// reservation, at the next Gather. The solve skips the zero factor entries
// too. A skipped ±0 product can change a running sum only while that sum
// is zero, and a sum ends at -0 only when it starts at -0; so the sparse
// solve is exact unless the right-hand side holds a -0 or a non-finite
// value (0·Inf is NaN) or the result holds a non-finite value, and Solve
// hands exactly those cases to the dense solve.
type Workspace struct {
	n    int
	lu   []float64 // dense factors, valid when dense is set
	pivx []int
	perm []float64

	// dense reports that the current factors live in lu, as the dense
	// elimination left them, rather than in the compact program.
	dense bool

	// pat is the grow-only pattern (n×n, row-major), diagonal included.
	// pending reports entries reserved in pat but not yet compiled.
	pat     []bool
	pending bool

	// gathered is Factorize's compact copy of its input matrix.
	gathered []float64

	// The compiled program over the pattern's entries in row-major
	// order: val holds the compact values, pos their dense positions and
	// col their columns; row i occupies [rowStart[i], rowStart[i+1]) with
	// its diagonal at diag[i]. zeroPos lists every position outside the
	// pattern. For pivot k, low[lowStart[k]:lowStart[k+1]] are the
	// compact indices of the entries below the diagonal in column k, in
	// row order; each owns a run of dst indices, one per upper entry of
	// row k, naming the entry that the update writes.
	val      []float64
	pos      []int32
	col      []int32
	rowStart []int32
	diag     []int32
	zeroPos  []int32
	low      []int32
	lowStart []int32
	dst      []int32
}

// NewWorkspace creates a workspace for n×n systems.
func NewWorkspace(n int) *Workspace {
	if n <= 0 {
		panic("numeric: workspace size must be positive")
	}
	w := &Workspace{
		n:    n,
		lu:   make([]float64, n*n),
		pivx: make([]int, n),
		perm: make([]float64, n),
		pat:  make([]bool, n*n),
	}
	for i := 0; i < n; i++ {
		w.pat[i*n+i] = true
	}
	w.compile()
	return w
}

// Len returns the number of entries in the pattern: the length of the
// compact value arrays that Gather fills and FactorizeCompact takes.
func (w *Workspace) Len() int { return len(w.pos) }

// Index returns the position of entry (r, c) in the compact order, or -1
// when the entry is outside the compiled pattern.
func (w *Workspace) Index(r, c int) int {
	if r < 0 || r >= w.n || c < 0 || c >= w.n {
		panic("numeric: workspace index out of range")
	}
	lo, hi := int(w.rowStart[r]), int(w.rowStart[r+1])
	cols := w.col[lo:hi]
	k, found := slices.BinarySearch(cols, int32(c))
	if !found {
		return -1
	}
	return lo + k
}

// Reserve adds entry (r, c) to the pattern. The compact order takes it in
// at the next Gather; until then Pending reports true and Index, Len and
// FactorizeCompact keep to the compiled pattern.
func (w *Workspace) Reserve(r, c int) {
	if r < 0 || r >= w.n || c < 0 || c >= w.n {
		panic("numeric: workspace index out of range")
	}
	if p := r*w.n + c; !w.pat[p] {
		w.pat[p] = true
		w.pending = true
	}
}

// Pending reports whether Reserve added entries that the compact order
// does not hold yet.
func (w *Workspace) Pending() bool { return w.pending }

// Gather grows the pattern by every nonzero of a outside it (bitwise: -0
// counts) and by the reserved entries, recompiling when it grew, and
// copies a's entries in the pattern into dst in compact order. It returns
// dst resized to Len, reallocated only when its capacity is too small.
func (w *Workspace) Gather(a *Matrix, dst []float64) []float64 {
	n := w.n
	if a.Rows() != n || a.Cols() != n {
		panic("numeric: workspace dimension mismatch")
	}
	data := a.data
	var outside uint64
	for _, p := range w.zeroPos {
		outside |= math.Float64bits(data[p])
	}
	if outside != 0 {
		for _, p := range w.zeroPos {
			if math.Float64bits(data[p]) != 0 {
				w.pat[p] = true
			}
		}
		w.pending = true
	}
	if w.pending {
		w.compile()
	}
	if cap(dst) < len(w.pos) {
		dst = make([]float64, len(w.pos))
	}
	dst = dst[:len(w.pos)]
	for t, p := range w.pos {
		dst[t] = data[p]
	}
	return dst
}

// Scatter writes the compact values in over a, with +0 outside the
// pattern.
func (w *Workspace) Scatter(in []float64, a *Matrix) {
	if a.Rows() != w.n || a.Cols() != w.n {
		panic("numeric: workspace dimension mismatch")
	}
	w.scatter(in, a.data)
}

func (w *Workspace) scatter(in, dst []float64) {
	if len(in) != len(w.pos) {
		panic("numeric: compact input length mismatch")
	}
	clear(dst)
	for t, p := range w.pos {
		dst[p] = in[t]
	}
}

// Factorize LU-factorizes the square matrix a with partial pivoting,
// leaving a unmodified: it gathers a (growing the pattern by a's nonzeros
// outside it) and factorizes the compact values.
func (w *Workspace) Factorize(a *Matrix) error {
	w.gathered = w.Gather(a, w.gathered)
	return w.FactorizeCompact(w.gathered)
}

// FactorizeCompact LU-factorizes the matrix whose entries in the pattern
// are in, in compact order, and which is +0 everywhere else, leaving in
// unmodified. The result, down to every bit of every later Solve, is that
// of FactorizeDense on that matrix; it is computed over the pattern when
// that is exact, and by the dense elimination of in scattered over +0
// otherwise. It panics unless len(in) == Len.
func (w *Workspace) FactorizeCompact(in []float64) error {
	val := w.val
	if len(in) != len(val) {
		panic("numeric: compact input length mismatch")
	}
	for _, v := range in {
		if math.Float64bits(v) == negZero {
			return w.factorizeScattered(in)
		}
	}
	copy(val, in)
	ok, err := w.eliminate()
	if !ok {
		return w.factorizeScattered(in)
	}
	w.dense = false
	return err
}

// factorizeScattered is the dense fallback of FactorizeCompact.
func (w *Workspace) factorizeScattered(in []float64) error {
	w.scatter(in, w.lu)
	return w.eliminateDense()
}

// eliminate runs the compiled elimination on val. It reports false when
// the dense elimination would swap rows, meet a zero pivot (a swap or
// ErrSingular, which the dense elimination then decides) or meet a non-finite
// multiplier, and ErrSingular for a NaN pivot, as the dense elimination
// does. Bailing out midway is harmless: val is scratch, and the fallback
// starts again from the input.
func (w *Workspace) eliminate() (bool, error) {
	val, dst := w.val, w.dst
	d := 0
	for k := 0; k < w.n; k++ {
		dk := w.diag[k]
		piv := val[dk]
		amax := math.Abs(piv)
		if math.IsNaN(amax) {
			return true, ErrSingular
		}
		if amax == 0 {
			return false, nil
		}
		upper := val[dk+1 : w.rowStart[k+1]]
		nu := len(upper)
		// A row's updates touch only its own entries right of column k,
		// so checking each entry below the pivot just before its row is
		// updated sees the values the dense pivot search compares.
		for _, l := range w.low[w.lowStart[k]:w.lowStart[k+1]] {
			v := val[l]
			if math.Abs(v) > amax {
				return false, nil
			}
			m := v / piv
			val[l] = m
			if m == 0 {
				d += nu
				continue
			}
			if m-m != 0 {
				return false, nil
			}
			run := dst[d : d+nu]
			run = run[:len(upper)]
			d += nu
			for t, u := range upper {
				val[run[t]] -= m * u
			}
		}
	}
	return true, nil
}

// compile adds the natural-order fill to the pattern and rebuilds the
// index programs. It runs only when the pattern grows.
func (w *Workspace) compile() {
	n, pat := w.n, w.pat
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			if !pat[i*n+k] {
				continue
			}
			for j := k + 1; j < n; j++ {
				if pat[k*n+j] {
					pat[i*n+j] = true
				}
			}
		}
	}
	// The programs live as long as the workspace, one per engine, so
	// they are allocated at their exact sizes.
	size := 0
	for _, in := range pat {
		if in {
			size++
		}
	}
	idx := make([]int32, n*n)
	w.pos, w.col = make([]int32, 0, size), make([]int32, 0, size)
	w.zeroPos = make([]int32, 0, n*n-size)
	w.rowStart, w.diag = make([]int32, n+1), make([]int32, n)
	for i := 0; i < n; i++ {
		w.rowStart[i] = int32(len(w.pos))
		for j := 0; j < n; j++ {
			p := i*n + j
			if !pat[p] {
				idx[p] = -1
				w.zeroPos = append(w.zeroPos, int32(p))
				continue
			}
			if i == j {
				w.diag[i] = int32(len(w.pos))
			}
			idx[p] = int32(len(w.pos))
			w.pos = append(w.pos, int32(p))
			w.col = append(w.col, int32(j))
		}
	}
	w.rowStart[n] = int32(len(w.pos))
	w.val = make([]float64, size)
	nlow, ndst := 0, 0
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			if pat[i*n+k] {
				nlow++
				ndst += int(w.rowStart[k+1] - w.diag[k] - 1)
			}
		}
	}
	w.low, w.dst = make([]int32, 0, nlow), make([]int32, 0, ndst)
	w.lowStart = make([]int32, n+1)
	for k := 0; k < n; k++ {
		w.lowStart[k] = int32(len(w.low))
		upper := w.col[w.diag[k]+1 : w.rowStart[k+1]]
		for i := k + 1; i < n; i++ {
			if l := idx[i*n+k]; l >= 0 {
				w.low = append(w.low, l)
				for _, j := range upper {
					w.dst = append(w.dst, idx[i*n+int(j)])
				}
			}
		}
	}
	w.lowStart[n] = int32(len(w.low))
	w.pending = false
}

// FactorizeDense is the reference elimination: partial pivoting over
// every entry of a, skipping only zero multipliers. Factorize falls back
// to it and is tested bit-for-bit against it.
func (w *Workspace) FactorizeDense(a *Matrix) error {
	n := w.n
	if a.Rows() != n || a.Cols() != n {
		panic("numeric: workspace dimension mismatch")
	}
	copy(w.lu, a.data)
	return w.eliminateDense()
}

// eliminateDense runs the dense elimination on lu in place.
func (w *Workspace) eliminateDense() error {
	n := w.n
	w.dense = true
	lu := w.lu
	for i := range w.pivx {
		w.pivx[i] = i
	}
	for k := 0; k < n; k++ {
		p, max := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > max {
				p, max = i, v
			}
		}
		if max == 0 || math.IsNaN(max) {
			return ErrSingular
		}
		if p != k {
			rp, rk := lu[p*n:p*n+n], lu[k*n:k*n+n]
			for c := range rp {
				rp[c], rk[c] = rk[c], rp[c]
			}
			w.pivx[p], w.pivx[k] = w.pivx[k], w.pivx[p]
		}
		pivot := lu[k*n+k]
		rowK := lu[k*n : k*n+n]
		for i := k + 1; i < n; i++ {
			rowI := lu[i*n : i*n+n]
			m := rowI[k] / pivot
			rowI[k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	return nil
}

// Solve writes the solution of the factorized system for right-hand side
// b into x. b and x may alias. It panics on length mismatch.
func (w *Workspace) Solve(b, x []float64) {
	n := w.n
	if len(b) != n || len(x) != n {
		panic("numeric: workspace Solve dimension mismatch")
	}
	if w.dense {
		w.solveDense(b, x)
		return
	}
	for _, v := range b {
		if math.Float64bits(v) == negZero || v-v != 0 {
			w.densify()
			w.solveDense(b, x)
			return
		}
	}
	copy(w.perm, b)
	copy(x, b)
	val, col, rowStart, diag := w.val, w.col, w.rowStart, w.diag
	for i := 1; i < n; i++ {
		s := x[i]
		ls := val[rowStart[i]:diag[i]]
		lc := col[rowStart[i]:diag[i]]
		lc = lc[:len(ls)]
		for t, v := range ls {
			s -= v * x[lc[t]]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		dk := diag[i]
		us := val[dk+1 : rowStart[i+1]]
		uc := col[dk+1 : rowStart[i+1]]
		uc = uc[:len(us)]
		for t, v := range us {
			s -= v * x[uc[t]]
		}
		x[i] = s / val[dk]
	}
	for _, v := range x {
		if v-v != 0 {
			w.densify()
			w.solveDense(w.perm, x)
			return
		}
	}
}

// densify scatters the compact factors into lu as the dense elimination
// would have left them: outside the pattern the upper factor is +0 and
// the lower factor is the multiplier +0/pivot.
func (w *Workspace) densify() {
	n := w.n
	for i := range w.pivx {
		w.pivx[i] = i
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 0.0
			if j < i {
				v = math.Copysign(0, w.val[w.diag[j]])
			}
			w.lu[i*n+j] = v
		}
	}
	for t, p := range w.pos {
		w.lu[p] = w.val[t]
	}
	w.dense = true
}

func (w *Workspace) solveDense(b, x []float64) {
	n := w.n
	lu := w.lu
	for i := 0; i < n; i++ {
		w.perm[i] = b[w.pivx[i]]
	}
	copy(x, w.perm)
	for i := 1; i < n; i++ {
		row := lu[i*n : i*n+n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n : i*n+n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}
