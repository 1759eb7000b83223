// Package eon implements the EON Compiler (paper Sec. 4.5): it compiles a
// model into a static execution program whose kernels are resolved at
// compile time — eliminating the TFLM interpreter's runtime graph walk
// and dispatch — and emits equivalent C++ source code in which weights
// are constant arrays and kernels are called directly, so the linker can
// strip everything unused.
//
// Two artifacts come out of a compilation:
//
//   - Program: a runnable in-process plan with no per-op registry
//     lookups, used by deploy and the benchmarks.
//   - C++ source (EmitCPP): the deployable library the real platform
//     ships, reproduced here as generated text with the same structure.
package eon

import (
	"fmt"
	"sort"

	"edgepulse/internal/nn"
	"edgepulse/internal/profiler"
	"edgepulse/internal/tensor"
	"edgepulse/internal/tflm"
)

// Program is a compiled model: a static, arena-backed execution plan.
type Program struct {
	// Precision of the compiled model.
	Precision tflm.Precision
	// NumClasses is the classifier output width.
	NumClasses int

	inputShape tensor.Shape
	// floatPlan executes the float model with every kernel bound at
	// compile time and every intermediate buffer placed at a fixed
	// offset of the liveness-planned arena.
	floatPlan *nn.InferPlan
	int8Run   func(*tensor.F32) *tensor.F32
	kernels   []string
	arena     int64
}

// Compile builds a static execution plan for the model. Every kernel is
// resolved now, and intermediate activations are laid out by the memory
// profiler's liveness-based arena planner (the same plan Table 4's RAM
// estimates are built on), so Run performs only direct calls into a
// pooled arena that is both smaller and faster than the interpreter's
// per-op bookkeeping.
func Compile(mf *tflm.ModelFile) (*Program, error) {
	p := &Program{Precision: mf.Precision, NumClasses: mf.NumClasses}
	used := map[string]bool{}
	switch mf.Precision {
	case tflm.Float32:
		if mf.Float == nil {
			return nil, fmt.Errorf("eon: float model missing")
		}
		specs, err := mf.Float.Spec()
		if err != nil {
			return nil, err
		}
		bufs, bufOf := profiler.ActivationAssignments(specs, 4)
		arenaBytes, offs := profiler.PlanArena(bufs)
		var offsets []int
		for i, s := range specs {
			used[s.Kind] = true
			if nn.Aliases(s.Kind) {
				continue
			}
			offsets = append(offsets, int(offs[bufOf[i+1]]/4))
		}
		p.floatPlan, err = nn.NewInferPlanOffsets(mf.Float, offsets, int(arenaBytes/4))
		if err != nil {
			return nil, err
		}
		p.arena = arenaBytes
	case tflm.Int8:
		if mf.Quant == nil {
			return nil, fmt.Errorf("eon: quant model missing")
		}
		qm := mf.Quant
		p.int8Run = qm.Forward
		for _, op := range qm.Ops {
			used[op.Kind] = true
		}
	default:
		return nil, fmt.Errorf("eon: unknown precision %d", mf.Precision)
	}
	p.inputShape = mf.InputShape().Clone()
	for k := range used {
		p.kernels = append(p.kernels, k)
	}
	sort.Strings(p.kernels)
	return p, nil
}

// Run executes one inference through the compiled plan. It is safe for
// concurrent use: the arena is pooled per call.
func (p *Program) Run(in *tensor.F32) (*tensor.F32, error) {
	if !in.Shape.Equal(p.inputShape) {
		return nil, fmt.Errorf("eon: input shape %v != model %v", in.Shape, p.inputShape)
	}
	if p.Precision == tflm.Int8 {
		return p.int8Run(in), nil
	}
	return p.floatPlan.Run(in)
}

// ArenaBytes returns the float plan's liveness-planned activation arena
// size (0 for int8 programs, whose buffers are pooled in the QModel).
func (p *Program) ArenaBytes() int64 { return p.arena }

// KernelsUsed returns the sorted set of kernel kinds linked into the
// program — everything else is eliminated, the "linker can strip unused
// instructions" effect the paper describes.
func (p *Program) KernelsUsed() []string {
	return append([]string(nil), p.kernels...)
}

// InputShape returns the model input shape.
func (p *Program) InputShape() tensor.Shape { return p.inputShape.Clone() }
