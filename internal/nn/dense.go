package nn

import (
	"fmt"
	"math"

	"edgepulse/internal/simd"
	"edgepulse/internal/tensor"
)

func sigmoid(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// Dense is a fully connected layer: out = act(W·x + b), W is [in][out].
type Dense struct {
	Units int
	Act   Activation

	W, B   *tensor.F32
	GW, GB *tensor.F32

	lastIn  *tensor.F32
	lastOut *tensor.F32
}

// NewDense creates a dense layer; weights are allocated lazily on the
// first OutShape/Forward call once the input size is known, or eagerly
// via Build.
func NewDense(units int, act Activation) *Dense {
	return &Dense{Units: units, Act: act}
}

// Build allocates parameters for a known input size.
func (d *Dense) Build(in int) {
	if d.W != nil && d.W.Shape[0] == in {
		return
	}
	d.W = tensor.NewF32(in, d.Units)
	d.B = tensor.NewF32(d.Units)
	d.GW = tensor.NewF32(in, d.Units)
	d.GB = tensor.NewF32(d.Units)
}

// Kind implements Layer.
func (d *Dense) Kind() string { return "dense" }

// OutShape implements Layer.
func (d *Dense) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("dense: want rank-1 input, got %v (add Flatten first)", in)
	}
	d.Build(in[0])
	return tensor.Shape{d.Units}, nil
}

// Forward implements Layer.
func (d *Dense) Forward(in *tensor.F32) *tensor.F32 {
	d.Build(len(in.Data))
	out := tensor.NewF32(d.Units)
	d.InferInto(in, out)
	d.lastIn = in
	d.lastOut = out
	return out
}

// InferInto implements Layer. The whole matrix-vector product is one
// simd.ConvAccF32 rank-1 accumulation sweep: inputs iterate in the outer
// loop over Units-contiguous weight rows, so per output unit the
// addition order is unchanged from the historical scalar loop.
func (d *Dense) InferInto(in, out *tensor.F32) {
	d.Build(len(in.Data))
	copy(out.Data, d.B.Data)
	simd.ConvAccF32(out.Data, d.W.Data, in.Data, d.Units)
	d.Act.applyTo(out.Data)
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.F32) *tensor.F32 {
	nIn := len(d.lastIn.Data)
	gradIn := tensor.NewF32(nIn)
	for j := 0; j < d.Units; j++ {
		g := gradOut.Data[j] * d.Act.grad(d.lastOut.Data[j])
		d.GB.Data[j] += g
		for i := 0; i < nIn; i++ {
			d.GW.Data[i*d.Units+j] += g * d.lastIn.Data[i]
			gradIn.Data[i] += g * d.W.Data[i*d.Units+j]
		}
	}
	return gradIn
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.F32 {
	if d.W == nil {
		return nil
	}
	return []*tensor.F32{d.W, d.B}
}

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.F32 {
	if d.GW == nil {
		return nil
	}
	return []*tensor.F32{d.GW, d.GB}
}

// MACs implements Layer.
func (d *Dense) MACs(in tensor.Shape) int64 {
	return int64(in.Elems()) * int64(d.Units)
}
