//go:build !amd64

package tensor

func availableKernels() []f32Kernel { return []f32Kernel{kernelGo} }

func microKernel(c []float32, ldc int, ap, b []float32, offs []int) {
	microKernel4x8Go(c, ldc, ap, b, offs)
}
