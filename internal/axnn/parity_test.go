package axnn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/axmult"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// parityNets returns conv+dense stacks covering the shape corners the
// tiled kernel specialises on: padded and strided convolutions, an
// output-channel count that exercises both the 4-wide register block
// and its 1-wide tail, pooling, the dense stages, and two 1x1-output
// convolutions (the dot kernels) whose reduction depths are and are
// not a multiple of the vector step.
func parityNets() []*nn.Network {
	rng := rand.New(rand.NewSource(97))
	return []*nn.Network{
		{
			Name: "parity-pad",
			Layers: []nn.Layer{
				nn.NewConv2D(1, 6, 3, 1, 1, rng), // pad=1, outC=6: one block + 2-tail
				&nn.ReLU{},
				nn.NewAvgPool2D(2, 2),
				nn.NewConv2D(6, 4, 3, 1, 0, rng), // outC=4: exactly one block
				&nn.ReLU{},
				&nn.Flatten{},
				nn.NewDense(4*2*2, 10, rng),
				&nn.ReLU{},
				nn.NewDense(10, 4, rng),
			},
		},
		{
			Name: "parity-stride",
			Layers: []nn.Layer{
				nn.NewConv2D(2, 5, 3, 2, 2, rng), // stride=2, pad=2, outC=5: block + 1-tail
				&nn.ReLU{},
				nn.NewConv2D(5, 3, 3, 1, 0, rng), // outC=3: tail only, no full block
				&nn.ReLU{},
				&nn.Flatten{},
				nn.NewDense(3*3*3, 5, rng),
			},
		},
		{
			Name: "parity-1x1",
			Layers: []nn.Layer{
				nn.NewConv2D(1, 7, 8, 1, 0, rng), // k == input size: p == 1, kk=64, outC=7: block + 3-tail
				&nn.ReLU{},
				nn.NewConv2D(7, 5, 3, 1, 1, rng), // 1x1 input, pad=1: p == 1, kk=63, outC=5: block + 1-tail
				&nn.ReLU{},
				&nn.Flatten{},
				nn.NewDense(5, 4, rng),
			},
		},
	}
}

func parityBatch(chans, n int, seed int64) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	var xs []*tensor.T
	for i := 0; i < n; i++ {
		x := tensor.New(chans, 8, 8)
		for j := range x.Data {
			x.Data[j] = rng.Float32()*2 - 0.5
		}
		xs = append(xs, x)
	}
	return xs
}

func assertSameLogits(t *testing.T, label string, want, got *tensor.T) {
	t.Helper()
	if len(want.Data) != len(got.Data) {
		t.Fatalf("%s: logit count %d != %d", label, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: logit %d diverged: reference %v, tiled %v", label, i, want.Data[i], got.Data[i])
		}
	}
}

// TestTiledKernelParityAllMultipliers pins the tentpole's correctness
// claim: for EVERY multiplier in the axmult registry, on conv+dense
// stacks with padded and strided shapes and random batches, the tiled
// weight-major kernel produces logits bit-identical to the retained
// reference kernel.
func TestTiledKernelParityAllMultipliers(t *testing.T) {
	names := axmult.Names()
	if len(names) < 20 {
		t.Fatalf("registry unexpectedly small: %d designs", len(names))
	}
	for ni, net := range parityNets() {
		chans := net.Layers[0].(*nn.Conv2D).InC
		q, err := Compile(net, parityBatch(chans, 12, int64(100+ni)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		batch := tensor.Stack(parityBatch(chans, 5, int64(200+ni)))
		for _, name := range names {
			lut, err := axmult.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			eng := q.WithMultiplier(lut)
			want := eng.WithReferenceKernel().LogitsBatch(batch)
			got := eng.LogitsBatch(batch)
			assertSameLogits(t, fmt.Sprintf("%s/%s", net.Name, name), want, got)
		}
	}
}

// sparseParityBatch builds inputs whose real value is exactly zero
// with probability 1-density — after quantization those positions hold
// the activation zero-point code.
func sparseParityBatch(chans, n int, density float64, seed int64) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	var xs []*tensor.T
	for i := 0; i < n; i++ {
		x := tensor.New(chans, 8, 8)
		for j := range x.Data {
			if rng.Float64() < density {
				x.Data[j] = rng.Float32()*2 - 0.5
			}
		}
		xs = append(xs, x)
	}
	return xs
}

// TestTiledKernelParitySparse pins the kernels on zero-heavy inputs:
// batches mixing mostly-zero samples, dense samples, and an all-zero
// sample (every column entry the zero-point code, so every gather
// reads one table row) must stay bit-identical to the reference kernel
// on every structural corner of parityNets, across structurally
// diverse multipliers.
func TestTiledKernelParitySparse(t *testing.T) {
	nets := parityNets()
	muls := []string{"mul8u_1JFF", "mul8u_17KS", "mul8u_JV3", "mul8u_L40", "mul8u_QJD", "mul8u_FTA"}
	for ni, net := range nets {
		chans := net.Layers[0].(*nn.Conv2D).InC
		q, err := Compile(net, sparseParityBatch(chans, 12, 0.4, int64(400+ni)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var xs []*tensor.T
		xs = append(xs, sparseParityBatch(chans, 3, 0.08, int64(500+ni))...) // zero-heavy
		xs = append(xs, parityBatch(chans, 2, int64(510+ni))...)
		xs = append(xs, tensor.New(chans, 8, 8)) // all-zero
		batch := tensor.Stack(xs)
		for _, name := range muls {
			eng := q.WithMultiplier(axmult.MustLookup(name))
			want := eng.WithReferenceKernel().LogitsBatch(batch)
			got := eng.LogitsBatch(batch)
			assertSameLogits(t, fmt.Sprintf("sparse/%s/%s", net.Name, name), want, got)
		}
	}
}

// TestTiledKernelParityApproxDense covers the ApproxDense
// (activation-stationary LUT dense) path against the reference dense
// kernel for a sample of structurally diverse designs.
func TestTiledKernelParityApproxDense(t *testing.T) {
	net := parityNets()[0]
	q, err := Compile(net, parityBatch(1, 12, 300), Options{ApproxDense: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := tensor.Stack(parityBatch(1, 6, 301))
	for _, name := range []string{"mul8u_1JFF", "mul8u_JV3", "mul8u_L40", "mul8u_JQQ", "mul8u_QJD", "mul8u_FTA"} {
		eng := q.WithMultiplier(axmult.MustLookup(name))
		want := eng.WithReferenceKernel().LogitsBatch(batch)
		got := eng.LogitsBatch(batch)
		assertSameLogits(t, "approx-dense/"+name, want, got)
	}
}

// TestTiledKernelParityNoZeroPoint covers the ablation epilogue.
func TestTiledKernelParityNoZeroPoint(t *testing.T) {
	net := parityNets()[0]
	q, err := Compile(net, parityBatch(1, 12, 310), Options{NoZeroPointCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := tensor.Stack(parityBatch(1, 4, 311))
	eng := q.WithMultiplier(axmult.MustLookup("mul8u_17KS"))
	assertSameLogits(t, "no-zp",
		eng.WithReferenceKernel().LogitsBatch(batch), eng.LogitsBatch(batch))
}

// TestWorkersParity: intra-batch parallelism must be invisible in the
// output — every Workers setting yields bit-identical rows, including
// worker counts that do not divide the batch and exceed it.
func TestWorkersParity(t *testing.T) {
	net := parityNets()[0]
	q, err := Compile(net, parityBatch(1, 12, 320), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q = q.WithMultiplier(axmult.MustLookup("mul8u_JV3"))
	batch := tensor.Stack(parityBatch(1, 7, 321))
	want := q.LogitsBatch(batch)
	for _, w := range []int{2, 3, 4, 16} {
		got := q.WithWorkers(w).LogitsBatch(batch)
		assertSameLogits(t, fmt.Sprintf("workers=%d", w), want, got)
	}
}

// TestConcurrentBatchedWorkersRace hammers one shared Network with
// batched, worker-parallel inference from many goroutines — the
// pooled-workspace contract under the race detector (CI runs the whole
// suite with -race).
func TestConcurrentBatchedWorkersRace(t *testing.T) {
	net := parityNets()[0]
	q, err := Compile(net, parityBatch(1, 12, 330), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	q = q.WithMultiplier(axmult.MustLookup("mul8u_L40"))
	batch := tensor.Stack(parityBatch(1, 9, 331))
	want := q.LogitsBatch(batch)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				got := q.LogitsBatch(batch)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Error("concurrent worker-parallel LogitsBatch diverged")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
