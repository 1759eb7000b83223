package stream

import (
	"fmt"

	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
)

// impulseClassifier adapts a trained impulse to the session hot path. It
// calls Impulse.Infer and copies the probabilities into the session's
// score buffer, skipping the per-call label map that Impulse.Classify
// builds, so steady-state streaming stays within the one-shot
// allocation budget.
type impulseClassifier struct {
	imp       *core.Impulse
	quantized bool
}

// NewImpulseClassifier wraps a trained impulse for streaming. quantized
// selects the int8 model, which must exist.
func NewImpulseClassifier(imp *core.Impulse, quantized bool) (Classifier, error) {
	if imp == nil {
		return nil, fmt.Errorf("stream: nil impulse")
	}
	if imp.Input.Kind != core.TimeSeries {
		return nil, fmt.Errorf("stream: streaming needs a time-series input block, have %q", imp.Input.Kind)
	}
	if imp.Model == nil {
		return nil, fmt.Errorf("stream: impulse has no trained classifier")
	}
	if quantized && imp.QModel == nil {
		return nil, fmt.Errorf("stream: impulse has no quantized model")
	}
	if len(imp.Classes) == 0 {
		return nil, fmt.Errorf("stream: impulse has no classes")
	}
	return &impulseClassifier{imp: imp, quantized: quantized}, nil
}

func (c *impulseClassifier) Classes() []string { return c.imp.Classes }

func (c *impulseClassifier) Classify(win dsp.Signal, scores []float32) error {
	inf, err := c.imp.Infer(win, c.quantized)
	if err != nil {
		return err
	}
	if len(inf.Probs) != len(scores) {
		return fmt.Errorf("stream: model emitted %d scores, want %d", len(inf.Probs), len(scores))
	}
	copy(scores, inf.Probs)
	return nil
}
