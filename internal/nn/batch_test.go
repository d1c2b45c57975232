package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// stackInputs builds a batch of random conv-net inputs plus the
// per-sample views used by the scalar reference path.
func stackInputs(n int, shape []int, seed int64) (*tensor.T, []*tensor.T) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.T, n)
	for i := range xs {
		x := tensor.New(shape...)
		for j := range x.Data {
			x.Data[j] = rng.Float32()
		}
		xs[i] = x
	}
	return tensor.Stack(xs), xs
}

// TestLogitsBatchMatchesScalar is the golden batched/scalar parity
// test for the float engine: LogitsBatch row r must equal Logits on
// sample r bit for bit (identical per-sample accumulation order).
func TestLogitsBatchMatchesScalar(t *testing.T) {
	net := smallConvNet(21)
	batch, xs := stackInputs(7, []int{2, 6, 6}, 22)
	out := net.LogitsBatch(batch)
	if len(out.Shape) != 2 || out.Shape[0] != 7 {
		t.Fatalf("LogitsBatch shape %v", out.Shape)
	}
	for r, x := range xs {
		want := net.Logits(x)
		got := out.Row(r).Data
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("sample %d logit %d: batch %v != scalar %v", r, j, got[j], want[j])
			}
		}
	}
}

// TestLossGradBatchMatchesScalar pins bit-for-bit parity of the
// batched input-gradient path — the property that lets batched attacks
// reproduce scalar perturbations exactly.
func TestLossGradBatchMatchesScalar(t *testing.T) {
	net := smallConvNet(23)
	batch, xs := stackInputs(5, []int{2, 6, 6}, 24)
	labels := []int{0, 1, 2, 3, 4}
	losses, grads := net.LossGradBatch(batch, labels)
	if len(grads.Shape) != 4 || grads.Shape[0] != 5 {
		t.Fatalf("LossGradBatch grad shape %v", grads.Shape)
	}
	for r, x := range xs {
		wantLoss, wantGrad := net.LossGrad(x, labels[r])
		if losses[r] != wantLoss {
			t.Fatalf("sample %d loss: batch %v != scalar %v", r, losses[r], wantLoss)
		}
		got := grads.Row(r).Data
		for j := range wantGrad.Data {
			if got[j] != wantGrad.Data[j] {
				t.Fatalf("sample %d grad[%d]: batch %v != scalar %v", r, j, got[j], wantGrad.Data[j])
			}
		}
	}
}

// TestBatchSizeOneMatchesScalar guards the degenerate batch.
func TestBatchSizeOneMatchesScalar(t *testing.T) {
	net := smallConvNet(25)
	batch, xs := stackInputs(1, []int{2, 6, 6}, 26)
	out := net.LogitsBatch(batch)
	want := net.Logits(xs[0])
	for j := range want {
		if out.Data[j] != want[j] {
			t.Fatal("batch-of-one diverged from scalar")
		}
	}
}

// TestDenseOnlyBatch covers the FFNN path ([N,F] flat batches through
// Flatten passthrough and Dense).
func TestDenseOnlyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	net := &Network{
		Name: "ff",
		Layers: []Layer{
			&Flatten{},
			NewDense(12, 9, rng),
			&ReLU{},
			NewDense(9, 4, rng),
		},
	}
	batch, xs := stackInputs(6, []int{12}, 28)
	out := net.LogitsBatch(batch)
	if out.Shape[0] != 6 || out.Shape[1] != 4 {
		t.Fatalf("dense batch output shape %v", out.Shape)
	}
	for r, x := range xs {
		want := net.Logits(x)
		got := out.Row(r).Data
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("FFNN sample %d diverged", r)
			}
		}
	}
}

// TestPassResultsNotAliased: ReLU and pooling build the results that
// stay inside a pass in the pooled pass's buffers, so whatever a call
// hands back — logits, the input gradient, every traced output — must
// survive later calls on the same network, also when a Flatten view
// sits between those layers and the caller.
func TestPassResultsNotAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct {
		net   *Network
		shape []int
	}{
		{smallConvNet(30), []int{2, 6, 6}},
		{&Network{Name: "views", Layers: []Layer{&Flatten{}, &ReLU{}, NewDense(12, 8, rng), &ReLU{}, &Flatten{}}}, []int{12}},
		{&Network{Name: "pool-edges", Layers: []Layer{&ReLU{}, NewAvgPool2D(2, 2), &Flatten{}}}, []int{2, 4, 4}},
	}
	labels := []int{0, 1, 2}
	for _, tc := range cases {
		var xs [2]*tensor.T
		for i := range xs {
			xs[i], _ = stackInputs(len(labels), tc.shape, int64(32+i))
			for j := range xs[i].Data {
				xs[i].Data[j] -= 0.5 // both signs, so ReLU masks some
			}
		}
		logits := tc.net.Forward(xs[0])
		_, grad := tc.net.LossGradBatch(xs[0], labels)
		outs := append([]*tensor.T{logits, grad}, tc.net.ForwardTrace(xs[0])...)
		var want [][]float32
		for _, o := range outs {
			want = append(want, append([]float32(nil), o.Data...))
		}
		for i := 0; i < 2; i++ {
			tc.net.Forward(xs[1])
			tc.net.LossGradBatch(xs[1], labels)
			tc.net.ForwardTrace(xs[1])
		}
		for k, o := range outs {
			for j, v := range o.Data {
				if v != want[k][j] {
					t.Fatalf("%s: result %d changed after later calls", tc.net.Name, k)
				}
			}
		}
	}
}
