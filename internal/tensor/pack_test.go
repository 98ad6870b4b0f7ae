package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Property suite for the packed tiled GEMM: across adversarial shapes
// (every M,N,K from propertyDims — primes, powers of two, and their
// neighbors, so every ragged-tile tail arises), all three transpose
// variants and the offset-indexed entry point, the packed kernel must be
// BIT-identical to the naive reference, not epsilon-close. The packed
// core is driven directly with deliberately tiny cache blockings so
// block boundaries land mid-matrix in many alignments, and every suite
// runs once per microkernel the host supports, not only the one the
// dispatcher picks.

var propertyDims = []int{1, 2, 3, 5, 7, 9, 13, 17, 31, 33, 63, 64, 65, 127, 128, 129}

// tinyBlocks forces many tile boundaries inside even small matrices.
var tinyBlocks = []gemmBlocks{
	{mc: gemmMR, kc: 3, nc: fNR},
	{mc: 8, kc: 8, nc: 8},
	{mc: 12, kc: 16, nc: 24},
	{mc: 64, kc: 128, nc: 256},
}

// forEachKernel runs f once per f32 microkernel the host supports, as a
// subtest named after the kernel, with that kernel active.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(k f32Kernel) { activeKernel = k }(activeKernel)
	for _, k := range availableKernels() {
		activeKernel = k
		t.Run(k.String(), f)
	}
}

// packedVariant runs the packed core serially over all rows with the
// given blocking, mirroring what matMulPacked does per worker.
func packedVariant(dst, a, b *Tensor, bs gemmBlocks, transA, transB bool) {
	packedSerial(dst, a, b, 0, dst.Shape[0], bs, transA, transB)
}

// offsetB lays the rows of b (k x n) out in one NaN-filled buffer at
// shuffled offsets with random gaps, and returns the buffer and the
// offset table. Every row is followed by at least roundUp(n, fNR)-n
// readable floats (gap NaN or the next row), which the kernel multiplies
// but must never store.
func offsetB(rng *rand.Rand, b *Tensor) ([]float32, []int) {
	k, n := b.Shape[0], b.Shape[1]
	offs := make([]int, k)
	pos := 0
	for _, p := range rng.Perm(k) {
		pos += rng.Intn(fNR + 1)
		offs[p] = pos
		pos += n
	}
	buf := make([]float32, pos+roundUp(n, fNR))
	for i := range buf {
		buf[i] = float32(math.NaN())
	}
	for p, o := range offs {
		copy(buf[o:o+n], b.Data[p*n:(p+1)*n])
	}
	return buf, offs
}

// offsetsVariant runs the offset-indexed core on B laid out by offsetB,
// into C rows ldc = n+3 apart in a NaN-filled buffer. It fails if the
// kernel writes between rows, and returns the m x n result.
func offsetsVariant(t *testing.T, name string, a *Tensor, buf []float32, offs []int, n int, bs gemmBlocks) *Tensor {
	t.Helper()
	m, ldc := a.Shape[0], n+3
	dst := make([]float32, (m-1)*ldc+n)
	for i := range dst {
		dst[i] = float32(math.NaN())
	}
	offsetsSerial(dst, ldc, a, buf, offs, n, bs)
	got := MustNew(m, n)
	for i := 0; i < m; i++ {
		copy(got.Data[i*n:(i+1)*n], dst[i*ldc:])
		for j := i*ldc + n; j < min((i+1)*ldc, len(dst)); j++ {
			if !math.IsNaN(float64(dst[j])) {
				t.Fatalf("%s: row gap element %d overwritten with %g", name, j, dst[j])
			}
		}
	}
	return got
}

func randFilled(rng *rand.Rand, dims ...int) *Tensor {
	t := MustNew(dims...)
	fillMixed(t, rng)
	return t
}

func TestPackedGEMMPropertyBitIdentical(t *testing.T) {
	forEachKernel(t, testPackedGEMMProperty)
}

func testPackedGEMMProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// The full cross product of propertyDims³ x blockings is too slow;
	// sweep all (m,n) pairs against a rotating k (coverage of every
	// dimension value in every role) plus the full diagonal.
	type shape struct{ m, n, k int }
	var shapes []shape
	for i, m := range propertyDims {
		for j, n := range propertyDims {
			k := propertyDims[(i+j)%len(propertyDims)]
			shapes = append(shapes, shape{m, n, k})
		}
	}
	for _, d := range propertyDims {
		shapes = append(shapes, shape{d, d, d})
	}
	for _, s := range shapes {
		a := randFilled(rng, s.m, s.k)
		b := randFilled(rng, s.k, s.n)
		at := randFilled(rng, s.k, s.m)
		bt := randFilled(rng, s.n, s.k)
		got := MustNew(s.m, s.n)

		want := refMatMul(a, b)
		for _, bs := range tinyBlocks {
			got.Fill(42) // stale contents must not leak through
			packedVariant(got, a, b, bs, false, false)
			assertBitIdentical(t, fmt.Sprintf("packed %dx%dx%d blocks %+v", s.m, s.n, s.k, bs), got, want)
		}

		buf, offs := offsetB(rng, b)
		for _, bs := range tinyBlocks {
			name := fmt.Sprintf("offsets %dx%dx%d blocks %+v", s.m, s.n, s.k, bs)
			assertBitIdentical(t, name, offsetsVariant(t, name, a, buf, offs, s.n, bs), want)
		}

		want = refMatMulTransA(at, b)
		for _, bs := range tinyBlocks {
			got.Fill(42)
			packedVariant(got, at, b, bs, true, false)
			assertBitIdentical(t, fmt.Sprintf("packedTransA %dx%dx%d blocks %+v", s.m, s.n, s.k, bs), got, want)
		}

		want = refMatMulTransB(a, bt)
		for _, bs := range tinyBlocks {
			got.Fill(42)
			packedVariant(got, a, bt, bs, false, true)
			assertBitIdentical(t, fmt.Sprintf("packedTransB %dx%dx%d blocks %+v", s.m, s.n, s.k, bs), got, want)
		}
	}
}

// TestPackedGEMMPublicRoutingBitIdentical checks the public entry points
// (which route between the streaming and packed kernels by shape) on the
// same adversarial dimensions, so whichever kernel the router picks must
// match the reference bit for bit.
func TestPackedGEMMPublicRoutingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range propertyDims {
		for _, k := range []int{1, 7, 64, 129} {
			a := randFilled(rng, d, k)
			b := randFilled(rng, k, d)
			at := randFilled(rng, k, d)
			bt := randFilled(rng, d, k)
			got := MustNew(d, d)

			want := refMatMul(a, b)
			if err := MatMulInto(got, a, b); err != nil {
				t.Fatalf("MatMulInto %dx%dx%d: %v", d, d, k, err)
			}
			assertBitIdentical(t, fmt.Sprintf("route MatMul %dx%dx%d", d, d, k), got, want)

			got.Fill(42)
			buf, offs := offsetB(rng, b)
			if err := MatMulOffsetsInto(got.Data, d, a, buf, offs, d); err != nil {
				t.Fatalf("MatMulOffsetsInto %dx%dx%d: %v", d, d, k, err)
			}
			assertBitIdentical(t, fmt.Sprintf("route Offsets %dx%dx%d", d, d, k), got, want)

			want = refMatMulTransA(at, b)
			if err := MatMulTransAInto(got, at, b); err != nil {
				t.Fatalf("MatMulTransAInto %dx%dx%d: %v", d, d, k, err)
			}
			assertBitIdentical(t, fmt.Sprintf("route TransA %dx%dx%d", d, d, k), got, want)

			want = refMatMulTransB(a, bt)
			if err := MatMulTransBInto(got, a, bt); err != nil {
				t.Fatalf("MatMulTransBInto %dx%dx%d: %v", d, d, k, err)
			}
			assertBitIdentical(t, fmt.Sprintf("route TransB %dx%dx%d", d, d, k), got, want)
		}
	}
}

// TestPackedGEMMDegenerate covers K=0 (empty inner dimension: output
// must be all zeros, no panic) and 1xN / Mx1 panels through the packed
// core. Tensor.New rejects zero dims, so K=0 operands are built by hand.
func TestPackedGEMMDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, mn := range [][2]int{{1, 9}, {9, 1}, {1, 1}, {5, 13}} {
		m, n := mn[0], mn[1]
		a := &Tensor{Shape: []int{m, 0}, Data: nil}
		b := &Tensor{Shape: []int{0, n}, Data: nil}
		dst := randFilled(rng, m, n)
		packedVariant(dst, a, b, tinyBlocks[0], false, false)
		for i, v := range dst.Data {
			if v != 0 {
				t.Fatalf("K=0 %dx%d: dst[%d] = %v, want 0", m, n, i, v)
			}
		}
	}
	// 1xN and Mx1 with a real K: maximally ragged microkernel tiles.
	for _, s := range [][3]int{{1, 37, 11}, {37, 1, 11}, {1, 1, 129}, {2, 3, 1}} {
		m, n, k := s[0], s[1], s[2]
		a := randFilled(rng, m, k)
		b := randFilled(rng, k, n)
		want := refMatMul(a, b)
		got := MustNew(m, n)
		for _, bs := range tinyBlocks {
			got.Fill(-7)
			packedVariant(got, a, b, bs, false, false)
			assertBitIdentical(t, fmt.Sprintf("degenerate %dx%dx%d blocks %+v", m, n, k, bs), got, want)
		}
	}
}

// TestMicroKernelAsmMatchesGo pins every microkernel the host supports
// to the portable Go one on identical inputs: same op sequence per
// element, so bit-equal outputs. B rows sit at shuffled, gapped offsets,
// and C rows are ldc > fNR apart with NaN between and after them, which
// no kernel may overwrite. On non-amd64 only the Go kernel exists and
// the test is a tautology, which is fine.
func TestMicroKernelAsmMatchesGo(t *testing.T) {
	t.Logf("dispatcher chose the %v kernel; available: %v", activeKernel, availableKernels())
	defer func(k f32Kernel) { activeKernel = k }(activeKernel)
	const ldc = 11
	for _, kc := range []int{0, 1, 2, 3, 7, 64, 255} {
		rng := rand.New(rand.NewSource(int64(kc)))
		ap := make([]float32, gemmMR*kc)
		for i := range ap {
			ap[i] = float32(rng.NormFloat64())
		}
		offs := make([]int, kc)
		for p, slot := range rng.Perm(kc) {
			offs[p] = slot*(fNR+5) + rng.Intn(6)
		}
		b := make([]float32, kc*(fNR+5)+fNR)
		for i := range b {
			b[i] = float32(rng.NormFloat64())
		}
		c := make([]float32, (gemmMR+1)*ldc)
		for i := range c {
			if i%ldc < fNR && i < gemmMR*ldc {
				c[i] = float32(rng.NormFloat64())
			} else {
				c[i] = float32(math.NaN())
			}
		}
		want := append([]float32(nil), c...)
		microKernel4x8Go(want, ldc, ap, b, offs)
		for i, v := range want {
			if (i%ldc >= fNR || i >= gemmMR*ldc) && math.Float32bits(v) != math.Float32bits(c[i]) {
				t.Fatalf("go kc=%d: wrote element %d outside the tile", kc, i)
			}
		}
		for _, k := range availableKernels() {
			activeKernel = k
			got := append([]float32(nil), c...)
			microKernel(got, ldc, ap, b, offs)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%v kc=%d: element %d = %g, go kernel %g", k, kc, i, got[i], want[i])
				}
			}
		}
	}
}

// FuzzPackedGEMM lets the fuzzer pick shapes and a data seed; the packed
// kernel, and the offset-indexed entry point on a B laid out at random
// offsets drawn from the same seed, must stay bit-identical to the
// reference under every microkernel the host supports. The assembly
// kernels load B with no bounds check, so this is the target that
// exercises those loads.
func FuzzPackedGEMM(f *testing.F) {
	f.Add(3, 5, 7, int64(1))
	f.Add(129, 1, 64, int64(2))
	f.Add(16, 16, 16, int64(3))
	f.Add(9, 37, 130, int64(4)) // ragged n, k past the kc=8 block
	f.Add(6, 61, 27, int64(5))  // offsets: 27 rows shuffled, ragged last strip
	f.Fuzz(func(t *testing.T, m, n, k int, seed int64) {
		if m < 1 || n < 1 || k < 1 || m > 130 || n > 130 || k > 130 {
			t.Skip()
		}
		defer func(k f32Kernel) { activeKernel = k }(activeKernel)
		rng := rand.New(rand.NewSource(seed))
		a := randFilled(rng, m, k)
		b := randFilled(rng, k, n)
		buf, offs := offsetB(rng, b)
		want := refMatMul(a, b)
		got := MustNew(m, n)
		for _, kern := range availableKernels() {
			activeKernel = kern
			name := fmt.Sprintf("fuzz %v %dx%dx%d", kern, m, n, k)
			got.Fill(42)
			packedVariant(got, a, b, tinyBlocks[1], false, false)
			assertBitIdentical(t, name, got, want)
			assertBitIdentical(t, name+" offsets", offsetsVariant(t, name, a, buf, offs, n, tinyBlocks[1]), want)
		}
	})
}
