package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// randTensor fills a tensor of the given shape with uniform values in
// [-1, 1).
func randTensor(rng *rand.Rand, shape ...int) *tensor.T {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

// sameBits fails unless got and want agree bit for bit.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestConvMatchesRef pins the tiled conv passes bit for bit against the
// retained reference kernels: output, input gradient and, with
// accumGrads on, weight and bias gradients. The geometries cover
// LeNet-5's three convs (p = 784, 100 and 1), an AlexNet-shaped 3×3
// pad-1 layer, strided, 1×1 and padding-dominated layers; the batch
// sizes cross sample-group and column-padding boundaries. One State
// per case is reused across batch sizes, so shrinking batches run on
// stale scratch. Every layer has zero weights.
func TestConvMatchesRef(t *testing.T) {
	geoms := []struct {
		name                      string
		inC, outC, k, stride, pad int
		h, w                      int
	}{
		{"lenet-c1", 1, 6, 5, 1, 2, 28, 28},
		{"lenet-c2", 6, 16, 5, 1, 0, 14, 14},
		{"lenet-c3", 16, 120, 5, 1, 0, 5, 5},
		{"alexnet-3x3-pad1", 5, 7, 3, 1, 1, 8, 8},
		{"stride2", 3, 5, 3, 2, 1, 7, 7},
		{"1x1", 4, 6, 1, 1, 0, 5, 5},
		{"pad-exceeds-input", 2, 3, 5, 1, 2, 1, 3},
	}
	// 0 is one unbatched [C,H,W] sample.
	batches := []int{1, 2, 3, 5, 10, 33, 0}
	for gi, g := range geoms {
		for _, accum := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(100 + gi)))
			c := NewConv2D(g.inC, g.outC, g.k, g.stride, g.pad, rng)
			c.W[0] = 0
			c.W[len(c.W)/2] = 0
			for i := range c.B {
				c.B[i] = rng.Float32() - 0.5
			}
			ref := c.CloneDetached().(*Conv2D)
			st := &State{accumGrads: accum}
			rst := &refState{accumGrads: accum}
			for _, n := range batches {
				shape := []int{n, g.inC, g.h, g.w}
				if n == 0 {
					shape = shape[1:]
				}
				x := randTensor(rng, shape...)
				y := c.Forward(x, st)
				ry := ref.refForward(x, rst)
				sameBits(t, g.name+" y", y.Data, ry.Data)
				dy := randTensor(rng, y.Shape...)
				dx := c.Backward(dy, st)
				rdx := ref.refBackward(dy, rst)
				sameBits(t, g.name+" dx", dx.Data, rdx.Data)
				sameBits(t, g.name+" GW", c.GW, ref.GW)
				sameBits(t, g.name+" GB", c.GB, ref.GB)
			}
		}
	}
}

// lenet5 is models.LeNet5 for one-channel 28×28 inputs, rebuilt here
// because package models imports nn.
func lenet5(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return &Network{
		Name: "lenet5",
		Layers: []Layer{
			NewConv2D(1, 6, 5, 1, 2, rng), &ReLU{}, NewAvgPool2D(2, 2),
			NewConv2D(6, 16, 5, 1, 0, rng), &ReLU{}, NewAvgPool2D(2, 2),
			NewConv2D(16, 120, 5, 1, 0, rng), &ReLU{},
			&Flatten{},
			NewDense(120, 84, rng), &ReLU{},
			NewDense(84, 10, rng),
		},
	}
}

// TestLeNetLossGradBatchMatchesRef pins the whole attack gradient
// path: LeNet-5 LossGradBatch losses and input gradients are
// bit-identical with the tiled and the reference conv kernels.
func TestLeNetLossGradBatchMatchesRef(t *testing.T) {
	net := lenet5(31)
	ref := RefNetwork(net)
	for _, n := range []int{1, 10, 33} {
		xs, _ := stackInputs(n, []int{1, 28, 28}, int64(40+n))
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i % 10
		}
		losses, g := net.LossGradBatch(xs, labels)
		rlosses, rg := ref.LossGradBatch(xs, labels)
		sameBits(t, "loss", losses, rlosses)
		sameBits(t, "grad", g.Data, rg.Data)
	}
}
