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
// variants and the entry point that takes an already-packed B, the
// packed kernel must be BIT-identical to the naive reference, not
// epsilon-close. The packed core is driven directly with deliberately
// tiny cache blockings so block boundaries land mid-matrix in many
// alignments, independent of what the runtime probe picked.

var propertyDims = []int{1, 2, 3, 5, 7, 9, 13, 17, 31, 33, 63, 64, 65, 127, 128, 129}

// tinyBlocks forces many tile boundaries inside even small matrices.
var tinyBlocks = []gemmBlocks{
	{mc: gemmMR, kc: 3, nc: gemmNR},
	{mc: 8, kc: 8, nc: 8},
	{mc: 12, kc: 16, nc: 20},
	{mc: 64, kc: 128, nc: 256},
}

// packedVariant runs the packed core serially over all rows with the
// given blocking, mirroring what matMulPacked does per worker.
func packedVariant(dst, a, b *Tensor, bs gemmBlocks, transA, transB bool) {
	packedSerial(dst, a, b, 0, dst.Shape[0], bs, transA, transB)
}

// fullyPackedB packs all of b (k x n) in MatMulPackedBInto's layout,
// then fills the lanes past n with NaN: they must never reach a result.
func fullyPackedB(b *Tensor) []float32 {
	k, n := b.Shape[0], b.Shape[1]
	bp := make([]float32, roundUp(n, gemmNR)*k)
	packBNormal(bp, b, 0, k, 0, n)
	if rem := n % gemmNR; rem != 0 {
		last := bp[(n/gemmNR)*gemmNR*k:]
		for p := 0; p < k; p++ {
			for j := rem; j < gemmNR; j++ {
				last[p*gemmNR+j] = float32(math.NaN())
			}
		}
	}
	return bp
}

func randFilled(rng *rand.Rand, dims ...int) *Tensor {
	t := MustNew(dims...)
	fillMixed(t, rng)
	return t
}

func TestPackedGEMMPropertyBitIdentical(t *testing.T) {
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

		bp := fullyPackedB(b)
		for _, bs := range tinyBlocks {
			got.Fill(42)
			packedBSerial(got.Data, a, bp, s.n, bs)
			assertBitIdentical(t, fmt.Sprintf("packedB %dx%dx%d blocks %+v", s.m, s.n, s.k, bs), got, want)
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
			if err := MatMulPackedBInto(got.Data, a, fullyPackedB(b), d); err != nil {
				t.Fatalf("MatMulPackedBInto %dx%dx%d: %v", d, d, k, err)
			}
			assertBitIdentical(t, fmt.Sprintf("route PackedB %dx%dx%d", d, d, k), got, want)

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

// TestMicroKernelAsmMatchesGo pins the amd64 assembly microkernel to the
// portable Go one on identical packed inputs: same op sequence per
// element, so bit-equal outputs. On non-amd64 the two are one function
// and the test is a tautology, which is fine.
func TestMicroKernelAsmMatchesGo(t *testing.T) {
	for _, kc := range []int{1, 2, 3, 7, 64, 255} {
		ap := make([]float32, gemmMR*kc)
		bp := make([]float32, gemmNR*kc)
		for i := range ap {
			ap[i] = float32(i%13)*0.375 - 2
		}
		for i := range bp {
			bp[i] = float32(i%11)*0.4375 - 1.5
		}
		const ldc = 6 // wider than NR: strided C rows
		cGo := MustNew(gemmMR, ldc)
		rng := rand.New(rand.NewSource(int64(kc)))
		fillMixed(cGo, rng)
		cAsm := cGo.Clone()
		microKernel4x4Go(cGo.Data, ldc, ap, bp, kc)
		microKernel4x4(cAsm.Data, ldc, ap, bp, kc)
		assertBitIdentical(t, fmt.Sprintf("microkernel kc=%d", kc), cAsm, cGo)
	}
}

// FuzzPackedGEMM lets the fuzzer pick shapes and a data seed; the packed
// kernel, and the entry point taking an already-packed B, must stay
// bit-identical to the reference for every corpus and generated input.
func FuzzPackedGEMM(f *testing.F) {
	f.Add(3, 5, 7, int64(1))
	f.Add(129, 1, 64, int64(2))
	f.Add(16, 16, 16, int64(3))
	f.Add(9, 37, 130, int64(4)) // packed B: ragged n, k past the kc=8 block
	f.Fuzz(func(t *testing.T, m, n, k int, seed int64) {
		if m < 1 || n < 1 || k < 1 || m > 130 || n > 130 || k > 130 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a := randFilled(rng, m, k)
		b := randFilled(rng, k, n)
		want := refMatMul(a, b)
		got := MustNew(m, n)
		packedVariant(got, a, b, tinyBlocks[1], false, false)
		assertBitIdentical(t, fmt.Sprintf("fuzz %dx%dx%d", m, n, k), got, want)
		got.Fill(42)
		packedBSerial(got.Data, a, fullyPackedB(b), n, tinyBlocks[1])
		assertBitIdentical(t, fmt.Sprintf("fuzz packedB %dx%dx%d", m, n, k), got, want)
	})
}
