package tensor

import "fmt"

// Cache-tiled packed GEMM. The three public MatMul*Into kernels route
// large problems here: A and B panels are repacked into contiguous
// microkernel-order buffers sized to fixed cache blocks, and a 4x8
// register-blocked microkernel walks the packed strips. The same
// microkernel serves MatMulOffsetsInto, whose B is never packed: the
// kernel reads row p of a B strip at strip+offs[p], so a packed panel
// passes the linear table p*fNR and an implicit-GEMM convolution passes
// the offsets of its kernel taps in the zero-padded sample. Packing
// buffers cycle through a dedicated panel pool (see panelbuf.go), so
// steady-state GEMMs allocate nothing.
//
// The microkernel ships three ways, chosen once at start-up (see
// activeKernel): AVX assembly on YMM registers, SSE assembly on XMM
// registers for amd64 hosts without AVX, and portable Go, which is the
// reference and the kernel on other architectures. All three use a
// separate multiply and add per product, never FMA.
//
// Bit-identity discipline (the contract shared with matmul.go): every
// output element owns a single running sum that accumulates its products
// in ascending shared-dimension order. The microkernel loads that sum
// from C into a register at the start of each K block, adds the block's
// products one at a time in p order, and stores it back — the same
// floating-point op sequence as the reference triple loop, so packing,
// tiling and the choice of kernel change memory traffic but never
// results. Ragged tiles run on a zero-initialised scratch tile: a padded
// lane only ever accumulates into a sum that is never stored, so padding
// is unobservable.

const (
	// gemmMR is the row count of both microkernels' register tiles.
	gemmMR = 4
	// gemmNR is the column width of the int8 microkernel (quant.go).
	gemmNR = 4
	// fNR is the column width of the f32 microkernel: gemmMR x fNR
	// running sums stay in registers while one K block streams through.
	fNR = 8

	// packedMinFlops is the M*N*K volume below which the register-blocked
	// streaming kernels in matmul.go win (packing cost is not amortized).
	packedMinFlops = 1 << 17
	// packedMinK and packedMinN gate degenerate shapes where panels would
	// be all tail: skinny problems stay on the streaming kernels.
	packedMinK = 8
	packedMinN = 8
)

// gemmBlocks are the cache-blocking sizes: the packed A panel is mc x kc
// (sized for L1), the packed B panel kc x nc (sized for L2). mc is a
// multiple of gemmMR and nc of fNR, so full panels have no ragged
// strips.
type gemmBlocks struct{ mc, kc, nc int }

// blocks is the blocking every f32 GEMM uses. It is a constant choice
// because every blocking gives bit-identical results: choosing per
// process could only make speed vary between processes.
var blocks = gemmBlocks{mc: 32, kc: 256, nc: 256}

// GEMMBlocks reports the cache-blocking sizes the packed kernels use:
// the mc x kc A panel and the kc x nc B panel.
func GEMMBlocks() (mc, kc, nc int) {
	return blocks.mc, blocks.kc, blocks.nc
}

// linearOffs is the offset table of a packed B strip, whose rows lie
// fNR floats apart: linearOffs[p] = p*fNR, long enough for any K block.
var linearOffs = func() []int {
	offs := make([]int, blocks.kc)
	for p := range offs {
		offs[p] = p * fNR
	}
	return offs
}()

// usePacked decides kernel routing from shape alone (deterministic; both
// paths are bit-identical, so this is purely a performance choice).
func usePacked(m, n, k int) bool {
	return k >= packedMinK && n >= packedMinN && m*n*k >= packedMinFlops
}

// matMulPacked computes dst += 0-initialized A·B (with optional logical
// transposes) through the packed tiled kernel, partitioning output rows
// across GOMAXPROCS workers. A is m x k after transA, B is k x n after
// transB, dst is m x n and is fully overwritten.
func matMulPacked(dst, a, b *Tensor, m, n, k int, transA, transB bool) {
	parallelRowsAligned(m, m*n*k, gemmMR, func(r0, r1 int) {
		packedSerial(dst, a, b, r0, r1, blocks, transA, transB)
	})
}

// parallelRowsAligned is parallelRows with worker chunks rounded up to a
// multiple of align, so only the final worker sees a ragged strip edge.
func parallelRowsAligned(m, flops, align int, kernel func(r0, r1 int)) {
	parallelRows((m+align-1)/align, flops, func(c0, c1 int) {
		r0, r1 := c0*align, c1*align
		if r1 > m {
			r1 = m
		}
		if r0 < r1 {
			kernel(r0, r1)
		}
	})
}

// packedSerial runs the blocked loop nest over output rows [r0, r1).
// Loop order is the BLIS nest: jc (N blocks) → pc (K blocks, ascending —
// the bit-identity requirement) → pack B → ic (M blocks) → pack A →
// microkernel sweep. Each call owns its packed panels, so concurrent
// workers never share pack buffers.
func packedSerial(dst, a, b *Tensor, r0, r1 int, bs gemmBlocks, transA, transB bool) {
	m := r1 - r0
	n := dst.Shape[1]
	var k int
	if transA {
		k = a.Shape[0]
	} else {
		k = a.Shape[1]
	}
	clear(dst.Data[r0*n : r1*n])
	if k == 0 {
		return
	}
	mc, kc, nc := min(bs.mc, roundUp(m, gemmMR)), min(bs.kc, k), min(bs.nc, roundUp(n, fNR))
	apBox := getPanel(mc * kc)
	bpBox := getPanel(nc * kc)
	defer putPanel(apBox)
	defer putPanel(bpBox)
	ap, bp := apBox.buf, bpBox.buf
	for jc := 0; jc < n; jc += nc {
		ncEff := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcEff := min(kc, k-pc)
			if transB {
				packBTrans(bp, b, pc, kcEff, jc, ncEff)
			} else {
				packBNormal(bp, b, pc, kcEff, jc, ncEff)
			}
			for ic := r0; ic < r1; ic += mc {
				mcEff := min(mc, r1-ic)
				if transA {
					packATrans(ap, a, ic, mcEff, pc, kcEff)
				} else {
					packANormal(ap, a, ic, mcEff, pc, kcEff)
				}
				packedCompute(dst.Data, ic, jc, n, ap, bp, fNR*kcEff, linearOffs[:kcEff], mcEff, ncEff)
			}
		}
	}
}

// packedCompute sweeps the microkernel over one packed A panel (mc rows,
// len(offs) k steps) and the nc columns of B, accumulating into the
// row-major C (row stride ldc) at row ic, column jc. B strip s (columns
// s*fNR..) starts at b[s*bstride], and its row p at offs[p] from there.
func packedCompute(c []float32, ic, jc, ldc int, ap, b []float32, bstride int, offs []int, mc, nc int) {
	kc := len(offs)
	for jr := 0; jr < nc; jr += fNR {
		cols := min(fNR, nc-jr)
		strip := b[(jr/fNR)*bstride:]
		for ir := 0; ir < mc; ir += gemmMR {
			rows := min(gemmMR, mc-ir)
			astrip := ap[(ir/gemmMR)*gemmMR*kc:]
			cbase := (ic+ir)*ldc + jc + jr
			if rows == gemmMR && cols == fNR {
				microKernel(c[cbase:], ldc, astrip, strip, offs)
				continue
			}
			// Ragged tile: run the full kernel on a scratch tile that
			// holds the valid running sums, then store only those.
			var tile [gemmMR * fNR]float32
			for r := 0; r < rows; r++ {
				copy(tile[r*fNR:r*fNR+cols], c[cbase+r*ldc:])
			}
			microKernel(tile[:], fNR, astrip, strip, offs)
			for r := 0; r < rows; r++ {
				copy(c[cbase+r*ldc:cbase+r*ldc+cols], tile[r*fNR:])
			}
		}
	}
}

// MatMulOffsetsInto computes dst[i*ldc+j] = Σ_p A[i][p]·b[offs[p]+j]
// for i < m, j < n on the calling goroutine: row p of the logical k x n
// B is the n floats of b starting at offs[p]. Rows may overlap, so a
// convolution passes the zero-padded input sample as b and the offset
// of each kernel tap as offs, and multiplies without unrolling the
// sample (an implicit GEMM). A is m x k and len(offs) must be k. The
// kernel reads fNR-wide strips, so every row needs roundUp(n, 8) floats
// of b from its offset on: the lanes past n are multiplied but never
// stored, so their contents do not matter. dst rows are ldc apart
// (ldc >= n); only their first n elements are written. The result is
// bit-identical to MatMulInto on the materialized B.
func MatMulOffsetsInto(dst []float32, ldc int, a *Tensor, b []float32, offs []int, n int) error {
	if len(a.Shape) != 2 {
		return fmt.Errorf("tensor: MatMulOffsets needs a 2-D A, got %v", a.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	if n <= 0 {
		return fmt.Errorf("tensor: MatMulOffsets needs n > 0, got %d", n)
	}
	if len(offs) != k {
		return fmt.Errorf("tensor: MatMulOffsets has %d offsets for inner dim %d", len(offs), k)
	}
	span := roundUp(n, fNR)
	for p, o := range offs {
		if o < 0 || o > len(b)-span {
			return fmt.Errorf("tensor: MatMulOffsets row %d at offset %d needs b[%d:%d], b holds %d", p, o, o, o+span, len(b))
		}
	}
	if ldc < n {
		return fmt.Errorf("tensor: MatMulOffsets ldc %d < n %d", ldc, n)
	}
	if want := (m-1)*ldc + n; len(dst) < want {
		return fmt.Errorf("tensor: MatMulOffsets dst holds %d elements, want %d", len(dst), want)
	}
	statGEMMCalls.Add(1)
	offsetsSerial(dst, ldc, a, b, offs, n, blocks)
	return nil
}

// offsetsSerial is the loop nest behind MatMulOffsetsInto: pc (K
// blocks, ascending) → ic (M blocks) → pack A → microkernel sweep over
// every fNR-column strip of B, strip s starting at b[s*fNR].
func offsetsSerial(dst []float32, ldc int, a *Tensor, b []float32, offs []int, n int, bs gemmBlocks) {
	m, k := a.Shape[0], a.Shape[1]
	for i := 0; i < m; i++ {
		clear(dst[i*ldc : i*ldc+n])
	}
	if k == 0 {
		return
	}
	mc, kc := min(bs.mc, roundUp(m, gemmMR)), min(bs.kc, k)
	apBox := getPanel(mc * kc)
	defer putPanel(apBox)
	for pc := 0; pc < k; pc += kc {
		kcEff := min(kc, k-pc)
		for ic := 0; ic < m; ic += mc {
			mcEff := min(mc, m-ic)
			packANormal(apBox.buf, a, ic, mcEff, pc, kcEff)
			packedCompute(dst, ic, 0, ldc, apBox.buf, b, fNR, offs[pc:pc+kcEff], mcEff, n)
		}
	}
}

// f32Kernel names one implementation of the 4x8 f32 microkernel.
type f32Kernel uint8

const (
	kernelGo f32Kernel = iota
	kernelSSE
	kernelAVX
)

func (k f32Kernel) String() string {
	return [...]string{"go", "sse", "avx"}[k]
}

// activeKernel is the microkernel every f32 GEMM runs: the last, and
// fastest, of availableKernels(), fixed at start-up. The kernels are
// bit-identical, so the choice changes speed only; tests set it to run
// their suites once per kernel.
var activeKernel = func() f32Kernel {
	ks := availableKernels()
	return ks[len(ks)-1]
}()

// microKernel4x8Go is the portable microkernel and the reference the
// assembly kernels are tested against. For each k step p it multiplies
// the gemmMR packed A values ap[p*gemmMR:] by the fNR B values at
// b[offs[p]:] and adds each product to its running sum, in ascending p;
// the gemmMR x fNR sums are loaded from and stored to c (row stride ldc).
func microKernel4x8Go(c []float32, ldc int, ap, b []float32, offs []int) {
	var acc [gemmMR][fNR]float32
	for r := range acc {
		acc[r] = [fNR]float32(c[r*ldc : r*ldc+fNR])
	}
	for p, o := range offs {
		bv := (*[fNR]float32)(b[o : o+fNR])
		a := (*[gemmMR]float32)(ap[p*gemmMR : p*gemmMR+gemmMR])
		for r := range acc {
			ar := a[r]
			for j := range bv {
				acc[r][j] += ar * bv[j]
			}
		}
	}
	for r := range acc {
		copy(c[r*ldc:r*ldc+fNR], acc[r][:])
	}
}

// packANormal packs rows [i0,i0+mc) x cols [p0,p0+kc) of row-major A
// (lda = A.Shape[1]) into gemmMR-row strips: strip s holds rows
// i0+s*MR.., laid out k-major so the microkernel reads gemmMR contiguous
// A values per k step. Ragged final strips pad with zeros.
func packANormal(dst []float32, a *Tensor, i0, mc, p0, kc int) {
	lda := a.Shape[1]
	di := 0
	for ir := 0; ir < mc; ir += gemmMR {
		rows := min(gemmMR, mc-ir)
		for r := 0; r < rows; r++ {
			src := a.Data[(i0+ir+r)*lda+p0 : (i0+ir+r)*lda+p0+kc]
			d := di + r
			for p, v := range src {
				dst[d+p*gemmMR] = v
			}
		}
		for r := rows; r < gemmMR; r++ {
			d := di + r
			for p := 0; p < kc; p++ {
				dst[d+p*gemmMR] = 0
			}
		}
		di += gemmMR * kc
	}
}

// packATrans packs the same logical panel when A is stored transposed
// (k x m, logical A[i][p] = a.Data[p*m+i]): each k step reads gemmMR
// contiguous elements of a stored row — the transpose happens during
// packing, not in the inner loop.
func packATrans(dst []float32, a *Tensor, i0, mc, p0, kc int) {
	lda := a.Shape[1]
	di := 0
	for ir := 0; ir < mc; ir += gemmMR {
		rows := min(gemmMR, mc-ir)
		for p := 0; p < kc; p++ {
			src := a.Data[(p0+p)*lda+i0+ir : (p0+p)*lda+i0+ir+rows]
			d := di + p*gemmMR
			for r, v := range src {
				dst[d+r] = v
			}
			for r := rows; r < gemmMR; r++ {
				dst[d+r] = 0
			}
		}
		di += gemmMR * kc
	}
}

// packBNormal packs rows [p0,p0+kc) x cols [j0,j0+nc) of row-major B
// (ldb = B.Shape[1]) into fNR-column strips, k-major.
func packBNormal(dst []float32, b *Tensor, p0, kc, j0, nc int) {
	ldb := b.Shape[1]
	di := 0
	for jr := 0; jr < nc; jr += fNR {
		cols := min(fNR, nc-jr)
		for p := 0; p < kc; p++ {
			src := b.Data[(p0+p)*ldb+j0+jr : (p0+p)*ldb+j0+jr+cols]
			d := di + p*fNR
			for j, v := range src {
				dst[d+j] = v
			}
			for j := cols; j < fNR; j++ {
				dst[d+j] = 0
			}
		}
		di += fNR * kc
	}
}

// packBTrans packs the same logical panel when B is stored transposed
// (n x k, logical B[p][j] = b.Data[j*k+p]): stored rows are contiguous
// in k, so each packed column reads one contiguous run.
func packBTrans(dst []float32, b *Tensor, p0, kc, j0, nc int) {
	ldb := b.Shape[1]
	di := 0
	for jr := 0; jr < nc; jr += fNR {
		cols := min(fNR, nc-jr)
		for jj := 0; jj < cols; jj++ {
			src := b.Data[(j0+jr+jj)*ldb+p0 : (j0+jr+jj)*ldb+p0+kc]
			d := di + jj
			for p, v := range src {
				dst[d+p*fNR] = v
			}
		}
		for jj := cols; jj < fNR; jj++ {
			d := di + jj
			for p := 0; p < kc; p++ {
				dst[d+p*fNR] = 0
			}
		}
		di += fNR * kc
	}
}

func roundUp(v, to int) int { return (v + to - 1) / to * to }
