package nn

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"nbhd/internal/tensor"
)

// testNet builds a conv->relu->pool->conv->linear stack covering every
// layer family with parameters.
func testNet(t *testing.T) *Sequential {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	conv1, err := NewConv2D(2, 4, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	relu, err := NewLeakyReLU(0.1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool2D(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	conv2, err := NewConv2D(4, 3, 3, 2, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	pool2, err := NewMaxPool2D(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	drop, err := NewDropout(0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := NewLinear(3, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	return NewSequential(conv1, relu, pool, conv2, pool2, drop, lin)
}

// inferCase is one network and input geometry for the inference
// bit-identity tables. The cases cover every shape the fused
// convolution epilogue handles or must decline to fuse.
type inferCase struct {
	name    string
	c, h, w int
	layers  func(t *testing.T, rng *rand.Rand) []Layer
	// wantErr marks the one degenerate geometry: both Forward and Infer
	// must reject it, with the same message.
	wantErr bool
}

func mustConv(t *testing.T, rng *rand.Rand, in, out, k, stride, pad int) Layer {
	t.Helper()
	c, err := NewConv2D(in, out, k, stride, pad, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Non-zero biases, so the epilogue's bias add is exercised.
	c.bias.Value.UniformInit(0.5, rng)
	return c
}

func mustReLU(t *testing.T) Layer {
	t.Helper()
	r, err := NewLeakyReLU(0.1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustPool(t *testing.T, size, stride int) Layer {
	t.Helper()
	p, err := NewMaxPool2D(size, stride)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var inferCases = []inferCase{
	{"conv_relu_pool_stack", 2, 10, 10, func(t *testing.T, _ *rand.Rand) []Layer { return testNet(t).Layers }, false},
	// Stride 2 infers through the batched training kernels, unfused.
	{"stride2_pad0", 2, 11, 11, func(t *testing.T, rng *rand.Rand) []Layer {
		return []Layer{mustConv(t, rng, 2, 5, 3, 2, 0), mustReLU(t), mustPool(t, 2, 0)}
	}, false},
	{"1x1_head", 3, 6, 7, func(t *testing.T, rng *rand.Rand) []Layer {
		return []Layer{mustConv(t, rng, 3, 9, 1, 1, 0)}
	}, false},
	// 9x11: odd H and W, outW=11 and outH*outW=99 both off the strip
	// width, and a pool that drops the last row and column.
	{"odd_hw", 2, 9, 11, func(t *testing.T, rng *rand.Rand) []Layer {
		return []Layer{mustConv(t, rng, 2, 6, 3, 1, 1), mustReLU(t), mustPool(t, 2, 0)}
	}, false},
	// outW=6: strips straddle output rows; outH*outW=42 leaves a ragged
	// last strip.
	{"ragged_strips", 1, 7, 6, func(t *testing.T, rng *rand.Rand) []Layer {
		return []Layer{mustConv(t, rng, 1, 4, 3, 1, 1), mustReLU(t), mustPool(t, 2, 0)}
	}, false},
	// 3x3 pad 0: the padded width is the input width (wp = w = 9), and
	// the GEMM's last two columns of every row are never stored.
	{"3x3_pad0", 2, 10, 9, func(t *testing.T, rng *rand.Rand) []Layer {
		return []Layer{mustConv(t, rng, 2, 5, 3, 1, 0), mustReLU(t), mustPool(t, 2, 0)}
	}, false},
	// One input channel: the offset table is a single K x K window.
	{"cin1", 1, 8, 8, func(t *testing.T, rng *rand.Rand) []Layer {
		return []Layer{mustConv(t, rng, 1, 6, 3, 1, 1), mustReLU(t), mustPool(t, 2, 0)}
	}, false},
	// 5x5 pad 2: the last B row runs K-1 = 4 floats past the padded
	// sample, into the K-1+8 slack.
	{"5x5_pad2", 2, 9, 10, func(t *testing.T, rng *rand.Rand) []Layer {
		return []Layer{mustConv(t, rng, 2, 4, 5, 1, 2), mustReLU(t), mustPool(t, 2, 0), mustConv(t, rng, 4, 3, 5, 1, 2)}
	}, false},
	// The 96 px and 48 px detectors' grid stages (refinement conv→
	// LeakyReLU, 1x1 head) at outW = 12 and outW = 6: with wp = 14 and
	// 8, 8-column strips straddle padded rows.
	{"detector_96px_grid_outw12", 8, 12, 12, func(t *testing.T, rng *rand.Rand) []Layer {
		return []Layer{mustConv(t, rng, 8, 8, 3, 1, 1), mustReLU(t), mustConv(t, rng, 8, 7, 1, 1, 0)}
	}, false},
	{"detector_48px_grid_outw6", 8, 6, 6, func(t *testing.T, rng *rand.Rand) []Layer {
		return []Layer{mustConv(t, rng, 8, 8, 3, 1, 1), mustReLU(t), mustConv(t, rng, 8, 7, 1, 1, 0)}
	}, false},
	// The detector neck: conv→LeakyReLU with no pool, then a 1x1 head.
	{"conv_relu_no_pool", 3, 8, 8, func(t *testing.T, rng *rand.Rand) []Layer {
		return []Layer{mustConv(t, rng, 3, 4, 3, 1, 1), mustReLU(t), mustConv(t, rng, 4, 7, 1, 1, 0)}
	}, false},
	{"pool_not_2x2", 2, 12, 12, func(t *testing.T, rng *rand.Rand) []Layer {
		return []Layer{mustConv(t, rng, 2, 4, 3, 1, 1), mustReLU(t), mustPool(t, 3, 2), mustConv(t, rng, 4, 3, 3, 1, 1), mustReLU(t), mustPool(t, 2, 1)}
	}, false},
	{"pool_not_after_conv", 2, 10, 10, func(t *testing.T, rng *rand.Rand) []Layer {
		return []Layer{mustReLU(t), mustPool(t, 2, 0), mustConv(t, rng, 2, 3, 3, 1, 1), mustPool(t, 2, 0), mustReLU(t)}
	}, false},
	// A 1x1 conv output cannot feed a 2x2 pool; the conv→LeakyReLU
	// pair still fuses and the pool's own error surfaces.
	{"conv_output_too_small_to_pool", 2, 3, 3, func(t *testing.T, rng *rand.Rand) []Layer {
		return []Layer{mustConv(t, rng, 2, 3, 3, 1, 0), mustReLU(t), mustPool(t, 2, 0)}
	}, true},
}

// TestInferMatchesForward pins the train/infer split's core guarantee:
// the stateless Infer path (with its fused conv epilogue) produces
// bit-identical outputs to the training-mode Forward with train=false,
// for every case at batch 1 to 5.
func TestInferMatchesForward(t *testing.T) {
	for _, tc := range inferCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(32))
			net := NewSequential(tc.layers(t, rng)...)
			for n := 1; n <= 5; n++ {
				x := tensor.MustNew(n, tc.c, tc.h, tc.w)
				x.UniformInit(1, rng)
				want, err := net.Forward(x, false)
				got, ierr := net.Infer(x)
				if tc.wantErr {
					// Both paths must fail at the same layer, for the same reason.
					if err == nil || ierr == nil || strings.Replace(err.Error(), "forward", "infer", 1) != ierr.Error() {
						t.Fatalf("batch %d: want matching errors, got Forward %v, Infer %v", n, err, ierr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("batch %d: Forward: %v", n, err)
				}
				if ierr != nil {
					t.Fatalf("batch %d: Infer: %v", n, ierr)
				}
				if !got.SameShape(want) {
					t.Fatalf("batch %d: Infer shape %v, Forward shape %v", n, got.Shape, want.Shape)
				}
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("batch %d: Infer[%d] = %g, Forward = %g", n, i, got.Data[i], want.Data[i])
					}
				}
			}
		})
	}
}

// TestInferBatchMatchesSingle verifies batched inference is bit-identical
// to running each sample alone — the property that lets Detect batch
// frames without changing any reported metric.
func TestInferBatchMatchesSingle(t *testing.T) {
	for _, tc := range inferCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(33))
			net := NewSequential(tc.layers(t, rng)...)
			const n = 5
			batch := tensor.MustNew(n, tc.c, tc.h, tc.w)
			batch.UniformInit(1, rng)
			got, err := net.Infer(batch)
			if tc.wantErr {
				// The degenerate case must fail batched and single alike,
				// with the same message.
				one := tensor.MustNew(1, tc.c, tc.h, tc.w)
				_, serr := net.Infer(one)
				if err == nil || serr == nil || err.Error() != serr.Error() {
					t.Fatalf("want matching errors, got batched %v, single %v", err, serr)
				}
				return
			}
			if err != nil {
				t.Fatalf("batched Infer: %v", err)
			}
			gotData := append([]float32(nil), got.Data...)
			per := got.NumElems() / n
			inPer := batch.NumElems() / n
			for s := 0; s < n; s++ {
				one := tensor.MustNew(1, tc.c, tc.h, tc.w)
				copy(one.Data, batch.Data[s*inPer:(s+1)*inPer])
				single, err := net.Infer(one)
				if err != nil {
					t.Fatalf("single Infer %d: %v", s, err)
				}
				for i := 0; i < per; i++ {
					if math.Float32bits(single.Data[i]) != math.Float32bits(gotData[s*per+i]) {
						t.Fatalf("sample %d elem %d: single %g vs batched %g", s, i, single.Data[i], gotData[s*per+i])
					}
				}
			}
		})
	}
}

// TestInferConcurrent drives many concurrent Infer calls through one
// network — run under -race this is the reentrancy proof for the
// evaluation engine's parallel fan-out.
func TestInferConcurrent(t *testing.T) {
	net := testNet(t)
	rng := rand.New(rand.NewSource(34))
	x := tensor.MustNew(2, 2, 10, 10)
	x.UniformInit(1, rng)
	want, err := net.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantData := append([]float32(nil), want.Data...)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got, err := net.Infer(x)
				if err != nil {
					errs <- err
					return
				}
				for i := range wantData {
					if got.Data[i] != wantData[i] {
						t.Errorf("concurrent Infer diverged at %d", i)
						return
					}
				}
				tensor.PutScratch(got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestParallelSamplesRepanicsOnCaller checks that a panic in a fanned-out
// worker reaches the caller's recover, after every worker has finished,
// instead of killing the process from a goroutine nobody can recover.
func TestParallelSamplesRepanicsOnCaller(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const n = 4
	var done [n]bool
	got := func() (r any) {
		defer func() { r = recover() }()
		parallelSamples(n, parallelWorkThreshold, func(s0, s1 int) {
			if s0 > 0 {
				panic("worker boom")
			}
			for s := s0; s < s1; s++ {
				done[s] = true
			}
		})
		return nil
	}()
	if got != "worker boom" {
		t.Fatalf("caller recovered %v, want the worker's panic", got)
	}
	if !done[0] {
		t.Fatal("caller re-panicked before the first worker finished")
	}
}

// TestTrainingStepsSteadyStateAllocations verifies the pooled compute
// layer: after a warmup step, further forward/backward steps reuse
// pooled buffers instead of allocating afresh.
func TestTrainingStepsSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	// Pin to one P so worker-goroutine bookkeeping doesn't show up as
	// allocations; the count is then deterministic across machines.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net := testNet(t)
	rng := rand.New(rand.NewSource(35))
	x := tensor.MustNew(4, 2, 10, 10)
	x.UniformInit(1, rng)
	step := func() {
		out, err := net.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		loss := tensor.GetScratch(out.Shape...)
		if err := SigmoidInto(loss, out); err != nil {
			t.Fatal(err)
		}
		net.ZeroGrads()
		gin, err := net.Backward(loss)
		if err != nil {
			t.Fatal(err)
		}
		tensor.PutScratch(gin)
		tensor.PutScratch(loss)
	}
	step() // warm the pool
	allocs := testing.AllocsPerRun(10, step)
	// A handful of incidental allocations (goroutine bookkeeping, slice
	// headers) is fine; the seed path allocated hundreds of tensors.
	if allocs > 30 {
		t.Errorf("steady-state training step allocates %.0f objects; pooling is not engaging", allocs)
	}
}
