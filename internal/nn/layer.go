// Package nn is a minimal, complete float32 neural-network stack:
// layers with forward and backward passes, cross-entropy loss, and
// input-gradient computation. It plays two roles in the reproduction:
// it trains the accurate DNNs (the paper trains with exact multipliers)
// and it serves as the adversary's white-box model — every gradient
// attack differentiates through this stack.
//
// Layers are stateless and batch-first: inputs are either a single
// sample ([C,H,W] or [F]) or a batch with a leading sample dimension
// ([N,C,H,W] or [N,F]), and all per-call scratch lives in an explicit
// State owned by the caller. Network pools those States internally, so
// concurrent Forward / Logits / LossGrad calls on one shared Network
// are safe without cloning. The only remaining use of Network.Clone is
// data-parallel training, where each worker needs private weight
// gradient buffers.
package nn

import "repro/internal/tensor"

// State carries the scratch one layer needs between a Forward call and
// the matching Backward, plus reusable buffers that amortise
// allocations across calls. A zero State is ready for use; Networks
// recycle States through an internal pool.
type State struct {
	// accumGrads routes weight/bias gradients into the layer's shared
	// G buffers during Backward. It is off for attack/inference passes
	// (making them safe on a shared network) and on for training.
	accumGrads bool

	x *tensor.T // layer input (conv, dense, pool)
	// cols holds conv im2col columns for one sample group: Forward's
	// GEMM operand, then in Backward the training pass's per-sample
	// columns and the group's column gradients.
	cols []float32
	// grp is the conv [OutC, cols] GEMM matrix of a multi-sample
	// group: Forward's product before the per-sample scatter, and the
	// gathered output gradients in Backward.
	grp   []float32
	wt    []float32 // conv Wᵀ, transposed per Backward call
	mask  []bool    // relu activation mask
	shape []int     // flatten input shape

	// innerOut and innerGrad are set by a Network pass when the layer's
	// Forward result (Backward result) is consumed inside the pass and
	// never reaches the caller. ReLU and pooling then build it in out
	// (gout), reused by every call of the pooled pass, instead of
	// allocating one per call. Iterative attacks call the network
	// hundreds of times per batch, and these results would otherwise
	// be most of the bytes they allocate.
	innerOut, innerGrad bool
	out, gout           []float32
}

// release drops references to pass inputs so pooled States do not pin
// batch tensors, while keeping the flat scratch buffers for reuse.
func (st *State) release() { st.x = nil }

// result returns a zeroed tensor of the given shape for a layer's
// Forward or Backward result: built in *buf when inner says the pass
// owns it, freshly allocated otherwise.
func result(inner bool, buf *[]float32, shape ...int) *tensor.T {
	if !inner {
		return tensor.New(shape...)
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	data := grow(buf, n)
	clear(data)
	return tensor.FromSlice(data, shape...)
}

// Layer is a differentiable network stage. Implementations must keep
// all mutable per-call data in st so that a single Layer value can be
// used concurrently with distinct States.
type Layer interface {
	// Forward computes the layer output for a single sample or a batch,
	// caching whatever Backward needs in st. The returned tensor is
	// freshly allocated (or a view of one) and owned by the caller,
	// except that with st.innerOut set it may live in st's buffers.
	Forward(x *tensor.T, st *State) *tensor.T
	// Backward consumes the gradient w.r.t. the layer output and
	// returns the gradient w.r.t. the layer input, in st's buffers
	// when st.innerGrad is set. Weight gradients are accumulated into
	// the layer's gradient buffers only when st was prepared for
	// training (see Network.AccumGrad).
	Backward(dy *tensor.T, st *State) *tensor.T
}

// Param couples a weight slice with its gradient buffer.
type Param struct {
	Name string
	W    []float32
	G    []float32
}

// ParamLayer is a Layer with trainable parameters.
type ParamLayer interface {
	Layer
	Params() []Param
	// CloneForTraining returns a copy sharing weight storage but owning
	// fresh gradient buffers, so data-parallel trainers can accumulate
	// per-worker gradients without races.
	CloneForTraining() Layer
	// CloneDetached returns a copy owning private weight AND gradient
	// storage initialised from the receiver — the basis of derived
	// models (adversarial fine-tuning) that retrain without mutating
	// their base.
	CloneDetached() Layer
}

// batchDims splits a layer input into (n, sampleShape) following the
// batch convention: rank sampleRank+1 tensors carry a leading batch
// dimension.
func batchDims(x *tensor.T, sampleRank int) (n int, sample []int) {
	if len(x.Shape) == sampleRank+1 {
		return x.Shape[0], x.Shape[1:]
	}
	return 1, x.Shape
}
