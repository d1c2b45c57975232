package nn

import (
	"math"
	"sync"

	"repro/internal/tensor"
)

// Network is an ordered stack of layers ending in logits (no softmax
// layer; the loss applies softmax internally).
//
// Networks are stateless with respect to inference: Forward, Logits,
// LogitsBatch, LossGrad and LossGradBatch keep all scratch in pooled
// per-call workspaces and never touch the shared gradient buffers, so
// one Network value serves any number of goroutines concurrently.
// Training uses Clone (private gradient buffers) plus AccumGrad.
type Network struct {
	Name   string
	Layers []Layer

	// passes recycles per-call workspaces (one State per layer).
	passes sync.Pool
}

// pass is one forward/backward workspace: a State slot per layer.
type pass struct {
	states []State
}

// getPass checks out a workspace. A layer's Forward result stays
// inside the pass when a later layer that is not a view (Flatten
// reshapes without copying) consumes it, unless the pass is a trace,
// which returns every result; its Backward result stays inside when an
// earlier non-view layer consumes it.
func (n *Network) getPass(accumGrads, trace bool) *pass {
	p, _ := n.passes.Get().(*pass)
	if p == nil || len(p.states) != len(n.Layers) {
		p = &pass{states: make([]State, len(n.Layers))}
	}
	first, last := len(n.Layers), -1
	for i, l := range n.Layers {
		if _, view := l.(*Flatten); !view {
			first, last = min(first, i), i
		}
	}
	for i := range p.states {
		st := &p.states[i]
		st.accumGrads = accumGrads
		st.innerOut = !trace && i < last
		st.innerGrad = i > first
	}
	return p
}

func (n *Network) putPass(p *pass) {
	for i := range p.states {
		p.states[i].release()
	}
	n.passes.Put(p)
}

func (n *Network) forward(x *tensor.T, p *pass) *tensor.T {
	for i, l := range n.Layers {
		x = l.Forward(x, &p.states[i])
	}
	return x
}

func (n *Network) backward(g *tensor.T, p *pass) *tensor.T {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g, &p.states[i])
	}
	return g
}

// Forward runs the full stack on a single sample or a batch and
// returns the logits tensor ([classes] or [N,classes]).
func (n *Network) Forward(x *tensor.T) *tensor.T {
	p := n.getPass(false, false)
	y := n.forward(x, p)
	n.putPass(p)
	return y
}

// Logits runs Forward on one sample and returns the logits as a plain
// slice. With LogitsBatch and LossGradBatch it satisfies the attack
// package's model interfaces.
func (n *Network) Logits(x *tensor.T) []float32 {
	return n.Forward(x).Data
}

// LogitsBatch runs the stack on a batch [N, sampleShape...] and
// returns the [N, classes] logits. Row r is bit-for-bit identical to
// Logits on sample r alone.
func (n *Network) LogitsBatch(xs *tensor.T) *tensor.T {
	return n.Forward(xs)
}

// Predict returns the argmax class for a single sample.
func (n *Network) Predict(x *tensor.T) int {
	return tensor.ArgMax(n.Logits(x))
}

// ForwardTrace runs the stack and returns every intermediate output
// (one per layer). Used by quantization calibration.
func (n *Network) ForwardTrace(x *tensor.T) []*tensor.T {
	p := n.getPass(false, true)
	outs := make([]*tensor.T, len(n.Layers))
	for i, l := range n.Layers {
		x = l.Forward(x, &p.states[i])
		outs[i] = x
	}
	n.putPass(p)
	return outs
}

// LossGrad computes the softmax cross-entropy loss for (x, label), and
// the gradient of that loss w.r.t. x. Weight gradients are NOT
// accumulated — the call is read-only on the network and safe for
// concurrent use. It is the per-sample reference the LossGradBatch
// parity tests check against.
func (n *Network) LossGrad(x *tensor.T, label int) (float32, *tensor.T) {
	p := n.getPass(false, false)
	logits := n.forward(x, p)
	loss, dlogits := SoftmaxCE(logits.Data, label)
	g := n.backward(tensor.FromSlice(dlogits, logits.Shape...), p)
	n.putPass(p)
	return loss, g
}

// LossGradBatch is the batched LossGrad: xs is [N, sampleShape...],
// labels has length N. It returns the per-sample losses and the
// [N, sampleShape...] input gradient, each row bit-for-bit identical
// to the scalar LossGrad on that sample.
func (n *Network) LossGradBatch(xs *tensor.T, labels []int) ([]float32, *tensor.T) {
	p := n.getPass(false, false)
	logits := n.forward(xs, p)
	rows, classes := logits.Shape[0], logits.Shape[1]
	losses := make([]float32, rows)
	dlogits := tensor.New(rows, classes)
	for r := 0; r < rows; r++ {
		loss, dl := SoftmaxCE(logits.Data[r*classes:(r+1)*classes], labels[r])
		losses[r] = loss
		copy(dlogits.Data[r*classes:(r+1)*classes], dl)
	}
	g := n.backward(dlogits, p)
	n.putPass(p)
	return losses, g
}

// GradFromLogitsBatch backpropagates an externally supplied logits
// gradient: xs is [N, sampleShape...], dlogits is [N, classes], and
// the result is the [N, sampleShape...] gradient of
// sum_r <dlogits[r], logits(xs)[r]> w.r.t. xs. It is the BPDA
// surrogate-gradient hook of the adaptive EOT attack: the loss (and
// hence dlogits) comes from a non-differentiable victim — a quantized
// AxDNN configuration — while the backward pass runs through this
// float network. Like LossGradBatch it never touches the shared
// weight-gradient buffers, so concurrent calls on one Network are
// safe.
func (n *Network) GradFromLogitsBatch(xs, dlogits *tensor.T) *tensor.T {
	p := n.getPass(false, false)
	logits := n.forward(xs, p)
	if logits.Len() != dlogits.Len() {
		panic("nn: GradFromLogitsBatch dlogits shape does not match the network's logits")
	}
	g := n.backward(dlogits, p)
	n.putPass(p)
	return g
}

// AccumGrad runs a training pass for (x, label): forward, loss, and
// backward with weight gradients accumulated into the network's G
// buffers. Unlike LossGrad it mutates shared state, so concurrent
// training workers must call it on private Clones.
func (n *Network) AccumGrad(x *tensor.T, label int) float32 {
	p := n.getPass(true, false)
	logits := n.forward(x, p)
	loss, dlogits := SoftmaxCE(logits.Data, label)
	n.backward(tensor.FromSlice(dlogits, logits.Shape...), p)
	n.putPass(p)
	return loss
}

// WeightsFingerprint folds every parameter into a cheap FNV-style
// hash. Caches keyed by network identity combine it with the pointer
// so a network retrained in place never matches its pre-training
// entries.
func (n *Network) WeightsFingerprint() uint64 {
	const prime = 1099511628211
	var h uint64 = 14695981039346656037
	for _, p := range n.Params() {
		for _, w := range p.W {
			h ^= uint64(math.Float32bits(w))
			h *= prime
		}
	}
	return h
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []Param {
	var ps []Param
	for _, l := range n.Layers {
		if pl, ok := l.(ParamLayer); ok {
			ps = append(ps, pl.Params()...)
		}
	}
	return ps
}

// ZeroGrads clears all gradient buffers.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		for i := range p.G {
			p.G[i] = 0
		}
	}
}

// Clone returns a network sharing weights with n but owning private
// weight-gradient buffers. It exists for data-parallel training
// (AccumGrad); inference and attacks never need it — the stateless
// forward/backward paths are already concurrency-safe on a shared
// Network.
func (n *Network) Clone() *Network {
	c := &Network{Name: n.Name, Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		if pl, ok := l.(ParamLayer); ok {
			c.Layers[i] = pl.CloneForTraining()
		} else {
			// Stateless layers are shared as-is.
			c.Layers[i] = l
		}
	}
	return c
}

// DeepClone returns a network with private copies of every parameter
// (and fresh gradient buffers): retraining the clone — adversarial
// fine-tuning a hardened variant — never mutates the base network or
// invalidates caches keyed on its weights fingerprint. Stateless
// layers are shared as in Clone.
func (n *Network) DeepClone() *Network {
	c := &Network{Name: n.Name, Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		if pl, ok := l.(ParamLayer); ok {
			c.Layers[i] = pl.CloneDetached()
		} else {
			c.Layers[i] = l
		}
	}
	return c
}

// SoftmaxCE returns the cross-entropy loss of logits against label and
// the gradient d loss / d logits (softmax(logits) minus one-hot).
func SoftmaxCE(logits []float32, label int) (float32, []float32) {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	probs := make([]float32, len(logits))
	for i, v := range logits {
		e := math.Exp(float64(v - maxv))
		probs[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range probs {
		probs[i] *= inv
	}
	loss := -float32(math.Log(math.Max(float64(probs[label]), 1e-12)))
	grad := probs
	grad[label] -= 1
	return loss, grad
}
