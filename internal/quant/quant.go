// Package quant implements full int8 post-training quantization (paper
// Sec. 4.5): weight and activation quantization with a representative
// calibration dataset, integer-only inference kernels with fixed-point
// requantization, and operator fusion (batchnorm folding).
//
// The produced QModel mirrors TFLite int8 semantics: symmetric int8
// weights, asymmetric int8 activations, int32 bias and accumulators.
package quant

import (
	"fmt"
	"math"
	"sync"

	"edgepulse/internal/nn"
	"edgepulse/internal/simd"
	"edgepulse/internal/tensor"
)

// QOp is one quantized operation.
type QOp struct {
	// Kind matches the float op kinds ("conv2d", "dense", ...).
	Kind string
	// InShape and OutShape are the activation shapes.
	InShape, OutShape tensor.Shape
	// W holds symmetric int8 weights (layout identical to the float op).
	W []int8
	// WScale is the weight scale (zero point 0).
	WScale float32
	// Bias holds int32 biases at scale InQ.Scale*WScale.
	Bias []int32
	// InQ and OutQ are the activation quantization parameters.
	InQ, OutQ tensor.QParams
	// Attrs carries layer hyperparameters (kernel, stride, ...).
	Attrs map[string]float64
	// MACs is the multiply-accumulate count of one invocation.
	MACs int64
	// ActMin and ActMax clamp the quantized output (fused activation).
	ActMin, ActMax int32

	mult  int32
	shift int
	// wPair holds the pair-interleaved int16 weight layout the VPMADDWD
	// kernels consume, one [ceil(cin/2) x filters] pair panel per kernel
	// tap (see simd.PairWeights). Built by Rebind; when nil the kernels
	// fall back to the scalar reference loops.
	wPair []int16
	// wPairRow is the cin==1 conv2d alternative layout: per kernel row
	// ky, the kx taps pair as if they were input channels, turning the
	// single-channel head conv's 1-pair taps into [kernel x filters]
	// panels over a contiguous input row. Built only for even kernel
	// widths (odd ones would need a phantom tap per row).
	wPairRow []int16
}

// WeightBytes returns the flash footprint of this op's parameters.
func (o *QOp) WeightBytes() int64 {
	return int64(len(o.W)) + int64(len(o.Bias))*4
}

// Rebind recomputes the derived kernel state from the op's serialized
// fields: the fixed-point requantization parameters and the
// pair-interleaved weight layout the vectorized int8 kernels consume.
// It must be called after constructing a QOp from its serialized fields
// (neither the multiplier nor the pair layout is persisted).
func (o *QOp) Rebind() {
	if len(o.W) == 0 {
		return
	}
	o.mult, o.shift = quantizeMultiplier(
		float64(o.InQ.Scale) * float64(o.WScale) / float64(o.OutQ.Scale))
	switch o.Kind {
	case "dense":
		o.wPair = simd.PairWeights(o.W, o.InShape.Elems(), o.OutShape.Elems())
	case "conv2d":
		kernel, _, _ := convDims(o)
		o.wPair = pairTaps(o.W, kernel*kernel, o.InShape[2], o.OutShape[2])
		if o.InShape[2] == 1 && kernel%2 == 0 {
			// Repair the taps row-wise: ky is the tap, kx the channel.
			o.wPairRow = pairTaps(o.W, kernel, kernel, o.OutShape[2])
		}
	case "conv1d":
		kernel, _, _ := convDims(o)
		o.wPair = pairTaps(o.W, kernel, o.InShape[1], o.OutShape[1])
	}
}

// pairTaps builds the per-tap pair panels for a conv weight tensor laid
// out as taps x [cin x nf].
func pairTaps(w []int8, taps, cin, nf int) []int16 {
	block := ((cin + 1) / 2) * nf * 2
	out := make([]int16, taps*block)
	for t := 0; t < taps; t++ {
		copy(out[t*block:(t+1)*block], simd.PairWeights(w[t*cin*nf:(t+1)*cin*nf], cin, nf))
	}
	return out
}

// QModel is a quantized model: an int8 op pipeline plus input/output
// quantization parameters. The final softmax runs in float, as TFLM does
// for its reference int8 kernels' output head.
type QModel struct {
	InputShape tensor.Shape
	InQ        tensor.QParams
	Ops        []*QOp
	NumClasses int

	// pool holds per-inference scratch (activation buffers + int32
	// accumulator row) so steady-state Forward calls do not allocate.
	pool sync.Pool
}

// qScratch is the pooled per-inference working state.
type qScratch struct {
	in     *tensor.I8
	outs   []*tensor.I8
	acc    []int32
	vp     []uint32
	logits []float32
}

// scratch draws (or builds) one inference's working buffers.
func (q *QModel) scratch() *qScratch {
	if s, ok := q.pool.Get().(*qScratch); ok {
		return s
	}
	s := &qScratch{in: tensor.NewI8(q.InQ, q.InputShape...)}
	maxAcc := 1
	for _, op := range q.Ops {
		var out *tensor.I8
		switch op.Kind {
		case "flatten", "reshape":
			// Aliasing ops get a header view; data is bound at run time.
			out = &tensor.I8{Shape: op.OutShape}
		default:
			out = tensor.NewI8(op.OutQ, op.OutShape...)
		}
		s.outs = append(s.outs, out)
		if row := accRowLen(op); row > maxAcc {
			maxAcc = row
		}
	}
	s.acc = make([]int32, maxAcc)
	maxVp := 0
	for _, op := range q.Ops {
		if n := vpLen(op); n > maxVp {
			maxVp = n
		}
	}
	s.vp = make([]uint32, maxVp)
	return s
}

// Forward quantizes the float input, runs the int8 pipeline, and returns
// float class probabilities. Activation buffers and the accumulator
// scratch are pooled, so repeated and concurrent calls reuse them; only
// the returned probability tensor is allocated.
func (q *QModel) Forward(in *tensor.F32) *tensor.F32 {
	s := q.scratch()
	x := s.in
	for i := range x.Data {
		x.Data[i] = q.InQ.Quantize(in.Data[i])
	}
	var probs *tensor.F32
	for i, op := range q.Ops {
		if op.Kind == "softmax" {
			probs = softmaxFloat(x, s)
			break
		}
		x = q.runOpInto(op, x, s.outs[i], s.acc, s.vp)
	}
	if probs == nil {
		probs = x.Dequantize()
	}
	q.pool.Put(s)
	return probs
}

// WeightBytes returns the total parameter flash footprint.
func (q *QModel) WeightBytes() int64 {
	var n int64
	for _, op := range q.Ops {
		n += op.WeightBytes()
	}
	return n
}

// MACs returns the total multiply-accumulate count of one inference.
func (q *QModel) MACs() int64 {
	var n int64
	for _, op := range q.Ops {
		n += op.MACs
	}
	return n
}

func softmaxFloat(x *tensor.I8, s *qScratch) *tensor.F32 {
	n := len(x.Data)
	if cap(s.logits) < n {
		s.logits = make([]float32, n)
	}
	logits := s.logits[:n]
	for i, qv := range x.Data {
		logits[i] = x.Q.Dequantize(qv)
	}
	out := tensor.NewF32(x.Shape...)
	max := logits[0]
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v - max))
		out.Data[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out.Data {
		out.Data[i] *= inv
	}
	return out
}

// Quantize converts a trained float model to int8 using the calibration
// set to determine activation ranges. BatchNorm layers are folded first;
// Dropout layers are dropped (inference no-ops).
func Quantize(m *nn.Model, calibration []*tensor.F32) (*QModel, error) {
	if len(calibration) == 0 {
		return nil, fmt.Errorf("quant: calibration set is empty")
	}
	folded, err := FoldBatchNorm(m)
	if err != nil {
		return nil, err
	}
	// Drop inference no-ops.
	var layers []nn.Layer
	for _, l := range folded.Layers {
		if _, isDrop := l.(*nn.Dropout); isDrop {
			continue
		}
		layers = append(layers, l)
	}
	folded.Layers = layers

	// Calibration: record min/max at every activation boundary.
	nBounds := len(folded.Layers) + 1
	lo := make([]float32, nBounds)
	hi := make([]float32, nBounds)
	for i := range lo {
		lo[i] = float32(math.Inf(1))
		hi[i] = float32(math.Inf(-1))
	}
	observe := func(b int, t *tensor.F32) {
		l, h := t.MinMax()
		if l < lo[b] {
			lo[b] = l
		}
		if h > hi[b] {
			hi[b] = h
		}
	}
	for _, sample := range calibration {
		if !sample.Shape.Equal(folded.InputShape) {
			return nil, fmt.Errorf("quant: calibration sample shape %v != input %v", sample.Shape, folded.InputShape)
		}
		observe(0, sample)
		x := sample
		for i, l := range folded.Layers {
			x = l.Forward(x)
			observe(i+1, x)
		}
	}
	qparams := make([]tensor.QParams, nBounds)
	for i := range qparams {
		qparams[i] = tensor.ChooseQParams(lo[i], hi[i])
	}

	specs, err := folded.Spec()
	if err != nil {
		return nil, err
	}
	qm := &QModel{
		InputShape: folded.InputShape.Clone(),
		InQ:        qparams[0],
		NumClasses: m.NumClasses,
	}
	for i, l := range folded.Layers {
		op := &QOp{
			Kind:     l.Kind(),
			InShape:  specs[i].InShape,
			OutShape: specs[i].OutShape,
			InQ:      qparams[i],
			OutQ:     qparams[i+1],
			Attrs:    specs[i].Attrs,
			MACs:     specs[i].MACs,
			ActMin:   -128,
			ActMax:   127,
		}
		if err := quantizeLayer(op, l); err != nil {
			return nil, err
		}
		qm.Ops = append(qm.Ops, op)
	}
	return qm, nil
}

// quantizeLayer fills op with quantized weights for compute layers and
// adjusts pass-through ops.
func quantizeLayer(op *QOp, l nn.Layer) error {
	var w, b *tensor.F32
	var act nn.Activation
	switch v := l.(type) {
	case *nn.Dense:
		w, b, act = v.W, v.B, v.Act
	case *nn.Conv2D:
		w, b, act = v.W, v.B, v.Act
	case *nn.DepthwiseConv2D:
		w, b, act = v.W, v.B, v.Act
	case *nn.Conv1D:
		w, b, act = v.W, v.B, v.Act
	case *nn.MaxPool2D, *nn.AvgPool2D, *nn.MaxPool1D, *nn.GlobalAvgPool2D,
		*nn.Flatten, *nn.Reshape, *nn.Softmax:
		// Pass-through ops: pooling reuses the input qparams so maxima
		// and averages stay exact in the quantized domain.
		if op.Kind != "softmax" {
			op.OutQ = op.InQ
		}
		return nil
	default:
		return fmt.Errorf("quant: unsupported layer %s", l.Kind())
	}
	if act == nn.Sigmoid {
		return fmt.Errorf("quant: fused sigmoid is not supported in int8 (layer %s)", l.Kind())
	}
	// Symmetric weight quantization.
	absMax := w.AbsMax()
	if absMax == 0 {
		absMax = 1e-8
	}
	op.WScale = absMax / 127
	op.W = make([]int8, len(w.Data))
	for i, v := range w.Data {
		q := int32(math.Round(float64(v) / float64(op.WScale)))
		op.W[i] = int8(clampI32(q, -127, 127))
	}
	// Bias at accumulator scale.
	biasScale := float64(op.InQ.Scale) * float64(op.WScale)
	op.Bias = make([]int32, len(b.Data))
	for i, v := range b.Data {
		op.Bias[i] = int32(math.Round(float64(v) / biasScale))
	}
	// Requantization multiplier and pair-interleaved kernel weights.
	op.Rebind()
	// Fused activation clamps in the quantized output domain.
	switch act {
	case nn.ReLU:
		op.ActMin = clampI32(op.OutQ.ZeroPoint, -128, 127)
	case nn.ReLU6:
		op.ActMin = clampI32(op.OutQ.ZeroPoint, -128, 127)
		op.ActMax = int32(op.OutQ.Quantize(6))
	}
	return nil
}
