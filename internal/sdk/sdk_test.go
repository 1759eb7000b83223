package sdk

import (
	"testing"

	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/synth"
	"edgepulse/internal/trainer"
)

// trainedImpulse builds a small trained KWS impulse on synthetic data.
func trainedImpulse(t testing.TB) (*core.Impulse, *data.Dataset) {
	t.Helper()
	ds, err := synth.KWSDataset(2, 14, 8000, 1, 0.03, 3)
	if err != nil {
		t.Fatal(err)
	}
	imp := core.New("kws")
	imp.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 1000, StrideMS: 250, FrequencyHz: 8000, Axes: 1}
	block, err := dsp.New("mfe", map[string]float64{"num_filters": 16, "fft_length": 128})
	if err != nil {
		t.Fatal(err)
	}
	imp.UseDSP(block)
	imp.Classes = ds.Labels()
	shape, err := imp.FeatureShape()
	if err != nil {
		t.Fatal(err)
	}
	model, err := models.Conv1DStack(shape[0], shape[1], 2, 8, 16, len(imp.Classes))
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.InitWeights(model, 5); err != nil {
		t.Fatal(err)
	}
	if err := imp.AttachClassifier(model); err != nil {
		t.Fatal(err)
	}
	if _, err := imp.Train(ds, trainer.Config{Epochs: 6, LearningRate: 0.005, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	return imp, ds
}

func TestRunClassifierTiming(t *testing.T) {
	imp, ds := trainedImpulse(t)
	c, err := NewClassifier(imp)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ds.Get(ds.List(data.Testing)[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunClassifier(s.Signal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label == "" || len(res.Scores) != 2 {
		t.Fatalf("result: %+v", res)
	}
	if res.Timing.DSP <= 0 || res.Timing.Classification <= 0 {
		t.Errorf("timing not populated: %+v", res.Timing)
	}
	if res.Timing.Total < res.Timing.DSP+res.Timing.Classification {
		t.Errorf("total %v < dsp %v + nn %v", res.Timing.Total, res.Timing.DSP, res.Timing.Classification)
	}
}

func TestClassifierAccuracyOnTestSplit(t *testing.T) {
	imp, ds := trainedImpulse(t)
	c, _ := NewClassifier(imp)
	correct, total := 0, 0
	for _, h := range ds.List(data.Testing) {
		s, err := ds.Get(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunClassifier(s.Signal)
		if err != nil {
			t.Fatal(err)
		}
		if res.Label == s.Label {
			correct++
		}
		total++
	}
	if float64(correct)/float64(total) < 0.75 {
		t.Fatalf("SDK accuracy %d/%d", correct, total)
	}
}

func TestQuantizedPath(t *testing.T) {
	imp, ds := trainedImpulse(t)
	if err := imp.Quantize(ds); err != nil {
		t.Fatal(err)
	}
	c, _ := NewClassifier(imp)
	c.UseQuantized = true
	s, err := ds.Get(ds.List(data.Testing)[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunClassifier(s.Signal)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 2 {
		t.Fatalf("quantized scores: %v", res.Scores)
	}
}

func TestRunContinuousSmoothing(t *testing.T) {
	imp, _ := trainedImpulse(t)
	c, _ := NewClassifier(imp)
	stream, _, err := synth.Stream(imp.Classes[0], 8000, 8, 2, 0.02, 21)
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.RunContinuous(stream)
	if err != nil {
		t.Fatal(err)
	}
	// 8s stream, 1s window, 250ms stride -> 29 windows.
	if len(results) != 29 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.WindowStart != i*2000 {
			t.Fatalf("window %d start %d", i, r.WindowStart)
		}
	}
}

func TestNewClassifierValidation(t *testing.T) {
	imp := core.New("empty")
	if _, err := NewClassifier(imp); err == nil {
		t.Error("accepted unconfigured impulse")
	}
	// Configured but untrained: no learn block output.
	imp2 := core.New("untrained")
	imp2.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 1000, FrequencyHz: 8000, Axes: 1}
	block, _ := dsp.New("mfe", nil)
	imp2.UseDSP(block)
	imp2.Classes = []string{"a", "b"}
	if _, err := NewClassifier(imp2); err == nil {
		t.Error("accepted untrained impulse")
	}
}

func BenchmarkRunClassifier(b *testing.B) {
	imp, ds := trainedImpulse(b)
	c, _ := NewClassifier(imp)
	first, err := ds.Get(ds.List(data.Testing)[0].ID)
	if err != nil {
		b.Fatal(err)
	}
	sig := first.Signal
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunClassifier(sig)
	}
}

// TestRunClassifierViewRestrictedLearnBlocks locks the SDK onto the
// per-learn-block feature views: a fused two-DSP-block design whose
// anomaly block watches only one block must classify and score without
// feeding the full composite vector to either learn block.
func TestRunClassifierViewRestrictedLearnBlocks(t *testing.T) {
	imp, err := core.FromConfig(core.Config{
		Name:  "fusion",
		Input: core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 4000, Axes: 2},
		DSP: []core.DSPBlockSpec{
			{Name: "vib", Type: "spectral-analysis", Params: map[string]float64{"fft_length": 64, "num_peaks": 8}, Axes: []int{0}},
			{Name: "aud", Type: "mfe", Params: map[string]float64{"num_filters": 8, "fft_length": 128}, Axes: []int{1}},
		},
		Learn: []core.LearnBlockSpec{
			{Type: core.LearnClassification, Inputs: []string{"vib", "aud"}},
			{Type: core.LearnAnomaly, Inputs: []string{"vib"}, Params: map[string]float64{"clusters": 2}},
		},
		Classes: []string{"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.KWSDataset(2, 8, 4000, 0.5, 0.03, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Widen the mono synth signals to 2 interleaved axes.
	fused := data.New()
	for _, h := range ds.List("") {
		s, err := ds.Get(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		wide := make([]float32, 2*len(s.Signal.Data))
		for i, v := range s.Signal.Data {
			wide[2*i], wide[2*i+1] = v, v
		}
		if _, err := fused.Add(&data.Sample{
			Name: s.Name, Label: s.Label, Category: s.Category,
			Signal: dsp.Signal{Data: wide, Rate: 4000, Axes: 2},
		}); err != nil {
			t.Fatal(err)
		}
	}
	imp.Classes = fused.Labels()
	shape, err := imp.ClassifierShape()
	if err != nil {
		t.Fatal(err)
	}
	model := models.TinyMLP(shape.Elems(), 8, len(imp.Classes))
	if err := nn.InitWeights(model, 1); err != nil {
		t.Fatal(err)
	}
	if err := imp.AttachClassifier(model); err != nil {
		t.Fatal(err)
	}
	if _, err := imp.Train(fused, trainer.Config{Epochs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := imp.TrainAnomaly(fused, 0, 1); err != nil {
		t.Fatal(err)
	}
	c, err := NewClassifier(imp)
	if err != nil {
		t.Fatal(err)
	}
	clip, err := fused.Get(fused.List("")[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunClassifier(clip.Signal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label == "" || res.AnomalyScore <= 0 {
		t.Fatalf("fused result: %+v", res)
	}
	// The SDK and the core pipeline must agree exactly.
	want, err := imp.Classify(clip.Signal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != want.Label || res.AnomalyScore != want.AnomalyScore {
		t.Fatalf("sdk %v/%v != core %v/%v", res.Label, res.AnomalyScore, want.Label, want.AnomalyScore)
	}
	if _, err := c.RunContinuous(clip.Signal); err != nil {
		t.Fatal(err)
	}
}
