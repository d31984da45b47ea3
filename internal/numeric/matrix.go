// Package numeric provides the small linear-algebra kernel used by the
// circuit simulator: dense matrices, LU factorization with partial
// pivoting, and vector helpers.
//
// The modified-nodal-analysis (MNA) systems of the DRAM column are small
// (25 unknowns after grounded-source elimination) but sparse: about 80 of
// the 625 entries are nonzero, and the pattern the Newton loop sees over
// a run of operations reaches 215–234 entries with fill. Matrices stay
// dense; the loop's Workspace factorizes over that recorded pattern,
// skipping the dense elimination's zero-operand work with bit-identical
// results. On a healthy column's Jacobian that takes factorize from ~1.8
// to ~1.5 µs and solve from ~0.81 to ~0.60 µs (medians of 5 runs on a
// 2 vCPU Xeon VM), and the electrical Table-1 inventory 1.35× faster
// together with the engine changes it came with.
package numeric

import "fmt"

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
// It panics if rows or cols is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("numeric: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j. MNA stamping is additive,
// so this is the primitive the circuit stamps use.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

// Zero resets all elements to zero, keeping the allocation.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Row returns the storage slice of row i. Writing through it mutates the
// matrix; it is the fast path used by the simulator's assembly and
// reduction loops, which touch every row once per Newton iteration and
// cannot afford per-element bounds checks.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("numeric: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom overwrites m with the contents of src.
// It panics if the dimensions differ.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.rows != src.rows || m.cols != src.cols {
		panic("numeric: CopyFrom dimension mismatch")
	}
	copy(m.data, src.data)
}

// MulVec computes y = m·x. It panics on dimension mismatch.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic("numeric: MulVec dimension mismatch")
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf("% .6g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("numeric: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}
