//go:build amd64

package tensor

// The assembly microkernels in pack_amd64.s. Each performs, per k step
// and per output element, exactly one single-precision multiply and one
// add in ascending k order — MULPS/ADDPS or VMULPS/VADDPS, never fused
// FMA — so its results are bit-identical to microKernel4x8Go; the SIMD
// lanes only change which elements advance together, not any element's
// op sequence. Neither checks bounds: callers guarantee that c holds
// 3*ldc+8 floats, ap 4*kc, offs kc, and b 8 floats from every offset.

// microKernel4x8SSE keeps the 4x8 tile in eight XMM registers. SSE2 is
// in the amd64 baseline, so it runs on every amd64 host.
//
//go:noescape
func microKernel4x8SSE(c *float32, ldc int, ap, b *float32, offs *int, kc int)

// microKernel4x8AVX keeps the 4x8 tile in four YMM registers; it needs
// AVX (see hasAVX).
//
//go:noescape
func microKernel4x8AVX(c *float32, ldc int, ap, b *float32, offs *int, kc int)

// cpuid executes CPUID for the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// hasAVX reports whether the CPU has AVX and the OS saves YMM state:
// CPUID leaf 1 reports OSXSAVE and AVX, and XCR0 enables both the XMM
// (bit 1) and the YMM (bit 2) state components.
func hasAVX() bool {
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// availableKernels lists the f32 microkernels this host can run, slowest
// first.
func availableKernels() []f32Kernel {
	if hasAVX() {
		return []f32Kernel{kernelGo, kernelSSE, kernelAVX}
	}
	return []f32Kernel{kernelGo, kernelSSE}
}

// microKernel runs the active 4x8 microkernel over len(offs) k steps;
// see microKernel4x8Go for the contract.
func microKernel(c []float32, ldc int, ap, b []float32, offs []int) {
	if len(offs) == 0 {
		return
	}
	switch activeKernel {
	case kernelAVX:
		microKernel4x8AVX(&c[0], ldc, &ap[0], &b[0], &offs[0], len(offs))
	case kernelSSE:
		microKernel4x8SSE(&c[0], ldc, &ap[0], &b[0], &offs[0], len(offs))
	default:
		microKernel4x8Go(c, ldc, ap, b, offs)
	}
}
