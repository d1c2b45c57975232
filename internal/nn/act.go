package nn

import "repro/internal/tensor"

// ReLU is the rectified linear activation. It is elementwise, so single
// samples and batches take the same path.
type ReLU struct{}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.T, st *State) *tensor.T {
	y := result(st.innerOut, &st.out, x.Shape...)
	if cap(st.mask) < len(y.Data) {
		st.mask = make([]bool, len(y.Data))
	}
	st.mask = st.mask[:len(y.Data)]
	for i, v := range x.Data {
		if v <= 0 {
			st.mask[i] = false
		} else {
			y.Data[i] = v
			st.mask[i] = true
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.T, st *State) *tensor.T {
	dx := result(st.innerGrad, &st.gout, dy.Shape...)
	for i, v := range dy.Data {
		if st.mask[i] {
			dx.Data[i] = v
		}
	}
	return dx
}

// Flatten reshapes [C,H,W] samples to [C*H*W] and [N,C,H,W] batches to
// [N,C*H*W]; a no-op on already-flat inputs.
type Flatten struct{}

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.T, st *State) *tensor.T {
	st.shape = append(st.shape[:0], x.Shape...)
	switch len(x.Shape) {
	case 4:
		return x.Reshape(x.Shape[0], x.Len()/x.Shape[0])
	case 3:
		return x.Reshape(x.Len())
	default:
		return x
	}
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *tensor.T, st *State) *tensor.T {
	return dy.Reshape(st.shape...)
}
