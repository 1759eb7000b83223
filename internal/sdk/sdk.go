// Package sdk is the inferencing SDK (paper Sec. 4.6): the runtime a
// deployed application links against. It wraps an impulse with the
// run_classifier entry point, per-stage timing (the measurements Table 2
// reports), and continuous classification over streaming signals — the
// same surface the platform's C++ SDK exposes.
package sdk

import (
	"fmt"
	"time"

	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
)

// Timing reports where one classification spent its time, mirroring the
// SDK's on-device timers.
type Timing struct {
	// DSP is the feature extraction duration.
	DSP time.Duration
	// Classification is the NN inference duration.
	Classification time.Duration
	// Total covers the whole run_classifier call.
	Total time.Duration
}

// Result is one classification with timing.
type Result struct {
	core.ClassResult
	// Timing reports per-stage durations.
	Timing Timing
	// WindowStart is the window's offset in samples for continuous runs.
	WindowStart int
}

// Classifier is an initialized inference engine for one impulse.
type Classifier struct {
	imp *core.Impulse
	// UseQuantized selects the int8 model when available.
	UseQuantized bool
}

// NewClassifier wraps a designed impulse. The impulse must have a trained
// learn block.
func NewClassifier(imp *core.Impulse) (*Classifier, error) {
	if err := imp.Validate(); err != nil {
		return nil, err
	}
	if imp.Model == nil && imp.Anomaly == nil {
		return nil, fmt.Errorf("sdk: impulse has no trained learn block")
	}
	return &Classifier{imp: imp}, nil
}

// RunClassifier executes the DSP graph + inference on one window of raw
// signal through core.Impulse.Infer, timing each stage — the SDK's main
// entry point.
func (c *Classifier) RunClassifier(sig dsp.Signal) (Result, error) {
	t0 := time.Now()
	inf, err := c.imp.Infer(sig, c.UseQuantized)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ClassResult: inf.Result(c.imp.Classes),
		Timing:      Timing{DSP: inf.DSP, Classification: inf.Learn, Total: time.Since(t0)},
	}, nil
}

// RunContinuous slides the impulse's window over a long signal and
// classifies every position — the SDK's continuous classification mode
// for streaming audio/sensor data. Results are per window and
// unsmoothed; stream.Debouncer turns them into events.
func (c *Classifier) RunContinuous(stream dsp.Signal) ([]Result, error) {
	wins := c.imp.Windows(stream)
	results := make([]Result, 0, len(wins))
	stride := c.imp.Input.StrideSamples()
	for i, w := range wins {
		r, err := c.RunClassifier(w)
		if err != nil {
			return nil, err
		}
		r.WindowStart = i * stride
		results = append(results, r)
	}
	return results, nil
}
