// Package tensor provides a minimal dense float64 tensor used by the Eco-FL
// neural-network substrate. Tensors are row-major and intentionally simple:
// the federated-learning simulation trains small models where clarity and
// determinism matter more than raw FLOP throughput.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major float64 array with an explicit shape.
// The zero value is an empty tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Randn returns a tensor with entries drawn i.i.d. from N(0, std²) using rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rows returns the size of the leading dimension (1 for scalars).
func (t *Tensor) Rows() int {
	if len(t.Shape) == 0 {
		return 1
	}
	return t.Shape[0]
}

// Cols returns the product of all dimensions after the first.
func (t *Tensor) Cols() int {
	if len(t.Shape) == 0 {
		return 1
	}
	c := 1
	for _, d := range t.Shape[1:] {
		c *= d
	}
	return c
}

// At returns the element at a 2-D index (row-major).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols()+j] }

// Set assigns the element at a 2-D index.
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols()+j] = v }

// RowView returns row i of the tensor (viewed 2-D) as a slice sharing t's
// storage. Prefer it over At/Set in per-element loops: it hoists the Cols()
// stride computation out of the loop and indexes the row directly.
func (t *Tensor) RowView(i int) []float64 {
	c := t.Cols()
	return t.Data[i*c : (i+1)*c]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	copy(t.Data, src.Data)
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Scale multiplies every element by a in place and returns t.
func (t *Tensor) Scale(a float64) *Tensor {
	for i := range t.Data {
		t.Data[i] *= a
	}
	return t
}

// AddScaled adds a*src to t element-wise in place (axpy) and returns t.
func (t *Tensor) AddScaled(a float64, src *Tensor) *Tensor {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: AddScaled size mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	for i, v := range src.Data {
		t.Data[i] += a * v
	}
	return t
}

// Add adds src to t element-wise in place and returns t.
func (t *Tensor) Add(src *Tensor) *Tensor { return t.AddScaled(1, src) }

// Sub subtracts src from t element-wise in place and returns t.
func (t *Tensor) Sub(src *Tensor) *Tensor { return t.AddScaled(-1, src) }

// Hadamard multiplies t by src element-wise in place and returns t.
func (t *Tensor) Hadamard(src *Tensor) *Tensor {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: Hadamard size mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	for i, v := range src.Data {
		t.Data[i] *= v
	}
	return t
}

// Dot returns the inner product of t and src viewed as flat vectors.
func (t *Tensor) Dot(src *Tensor) float64 {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	var s float64
	for i, v := range src.Data {
		s += t.Data[i] * v
	}
	return s
}

// Norm2 returns the squared Euclidean norm of t viewed as a flat vector.
func (t *Tensor) Norm2() float64 { return t.Dot(t) }

// setShape2D points dst at an (m, n) view, reusing its Shape slice when
// possible so reshaping a pooled buffer does not allocate.
func setShape2D(dst *Tensor, m, n int) {
	dst.Shape = append(dst.Shape[:0], m, n)
}

// MatMulInto computes a×b for 2-D tensors (m×k)·(k×n) → (m×n), overwriting
// dst (which must hold exactly m·n elements and not alias a or b) and
// returning it. Output rows are split across the package worker pool when
// the operation is large enough; each worker owns disjoint rows and
// accumulates every element in the same order as the serial kernel, so the
// result is bit-identical at any parallelism.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	if b.Rows() != k {
		panic(fmt.Sprintf("tensor: MatMul inner mismatch %v × %v", a.Shape, b.Shape))
	}
	if len(dst.Data) != m*n {
		panic(fmt.Sprintf("tensor: MatMulInto dst has %d elements, want %d", len(dst.Data), m*n))
	}
	setShape2D(dst, m, n)
	ParallelFor(m, 2*m*k*n, func(lo, hi int) {
		// ikj loop order keeps the inner loop streaming over contiguous
		// memory.
		for i := lo; i < hi; i++ {
			ai := a.Data[i*k : (i+1)*k]
			oi := dst.Data[i*n : (i+1)*n]
			for j := range oi {
				oi[j] = 0
			}
			for kk, av := range ai {
				if av == 0 {
					continue
				}
				axpy(oi, b.Data[kk*n:(kk+1)*n], av)
			}
		}
	})
	return dst
}

// MatMul returns a×b for 2-D tensors (m×k)·(k×n) → (m×n).
func MatMul(a, b *Tensor) *Tensor {
	return MatMulInto(New(a.Rows(), b.Cols()), a, b)
}

// MatMulATInto computes aᵀ×b for 2-D tensors (k×m)ᵀ·(k×n) → (m×n) into dst
// (m·n elements, no aliasing), returning dst. Parallel over output rows;
// bit-identical to the serial kernel (see MatMulInto).
func MatMulATInto(dst, a, b *Tensor) *Tensor {
	k, m, n := a.Rows(), a.Cols(), b.Cols()
	if b.Rows() != k {
		panic(fmt.Sprintf("tensor: MatMulAT inner mismatch %v × %v", a.Shape, b.Shape))
	}
	if len(dst.Data) != m*n {
		panic(fmt.Sprintf("tensor: MatMulATInto dst has %d elements, want %d", len(dst.Data), m*n))
	}
	setShape2D(dst, m, n)
	ParallelFor(m, 2*m*k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			oi := dst.Data[i*n : (i+1)*n]
			for j := range oi {
				oi[j] = 0
			}
		}
		// kk stays the outer loop so both operands stream row-wise; each
		// output element still accumulates in ascending-kk order.
		for kk := 0; kk < k; kk++ {
			ak := a.Data[kk*m : (kk+1)*m]
			bk := b.Data[kk*n : (kk+1)*n]
			for i := lo; i < hi; i++ {
				av := ak[i]
				if av == 0 {
					continue
				}
				axpy(dst.Data[i*n:(i+1)*n], bk, av)
			}
		}
	})
	return dst
}

// MatMulAT returns aᵀ×b for 2-D tensors (k×m)ᵀ·(k×n) → (m×n).
func MatMulAT(a, b *Tensor) *Tensor {
	return MatMulATInto(New(a.Cols(), b.Cols()), a, b)
}

// MatMulBTInto computes a×bᵀ for 2-D tensors (m×k)·(n×k)ᵀ → (m×n) into dst
// (m·n elements, no aliasing), returning dst. Parallel over output rows;
// bit-identical to the serial kernel (see MatMulInto).
func MatMulBTInto(dst, a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Rows()
	if b.Cols() != k {
		panic(fmt.Sprintf("tensor: MatMulBT inner mismatch %v × %v", a.Shape, b.Shape))
	}
	if len(dst.Data) != m*n {
		panic(fmt.Sprintf("tensor: MatMulBTInto dst has %d elements, want %d", len(dst.Data), m*n))
	}
	setShape2D(dst, m, n)
	ParallelFor(m, 2*m*k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.Data[i*k : (i+1)*k]
			oi := dst.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := b.Data[j*k : (j+1)*k]
				oi[j] = dot(ai, bj)
			}
		}
	})
	return dst
}

// MatMulBT returns a×bᵀ for 2-D tensors (m×k)·(n×k)ᵀ → (m×n).
func MatMulBT(a, b *Tensor) *Tensor {
	return MatMulBTInto(New(a.Rows(), b.Rows()), a, b)
}

// ArgmaxRow returns the index of the maximum element in row i.
func (t *Tensor) ArgmaxRow(i int) int {
	row := t.RowView(i)
	best, bv := 0, math.Inf(-1)
	for j, v := range row {
		if v > bv {
			best, bv = j, v
		}
	}
	return best
}

// Equal reports whether two tensors have identical shape and identical data.
func Equal(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether two tensors have equal shape and element-wise
// absolute difference at most tol. Any NaN element (in either tensor) makes
// the comparison fail: NaN is never almost-equal to anything, including NaN.
func AlmostEqual(a, b *Tensor, tol float64) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > tol || math.IsNaN(d) {
			return false
		}
	}
	return true
}

// axpy computes o[j] += a·x[j] for every j. Each element sees the same
// single multiply-add as a plain loop, so results are bit-identical; the
// loop runs four elements per iteration because the one-element body is
// short enough that its speed depended on where the linker placed it
// (fl-sim ran ~20% slower after an unrelated 416-byte shift of the code
// before this package), while the unrolled body measured the same at both
// placements.
func axpy(o, x []float64, a float64) {
	x = x[:len(o)]
	j := 0
	for ; j+4 <= len(o); j += 4 {
		o4, x4 := o[j:j+4:j+4], x[j:j+4:j+4]
		o4[0] += a * x4[0]
		o4[1] += a * x4[1]
		o4[2] += a * x4[2]
		o4[3] += a * x4[3]
	}
	for ; j < len(o); j++ {
		o[j] += a * x[j]
	}
}

// dot returns Σ a[k]·b[k], accumulated in ascending k (the order of the
// plain loop, so results are bit-identical), four terms per iteration for
// the same reason as axpy.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	k := 0
	for ; k+4 <= len(a); k += 4 {
		a4, b4 := a[k:k+4:k+4], b[k:k+4:k+4]
		s += a4[0] * b4[0]
		s += a4[1] * b4[1]
		s += a4[2] * b4[2]
		s += a4[3] * b4[3]
	}
	for ; k < len(a); k++ {
		s += a[k] * b[k]
	}
	return s
}
