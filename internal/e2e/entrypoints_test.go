// Differential test over every in-process classify entry point: the
// same seeded windows through core, batch, SDK, stream and EIM must
// produce bit-identical scores, labels and anomaly scores in both
// precisions, since all of them are callers of core.Impulse.Infer.
package e2e

import (
	"math"
	"math/rand"
	"testing"

	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
	"edgepulse/internal/eim"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/sdk"
	"edgepulse/internal/stream"
	"edgepulse/internal/synth"
	"edgepulse/internal/trainer"
)

// entryPointImpulse trains a small KWS impulse with a float model, its
// int8 quantization and a K-means anomaly block.
func entryPointImpulse(t *testing.T) *core.Impulse {
	t.Helper()
	ds, err := synth.KWSDataset(3, 8, 8000, 0.5, 0.03, 7)
	if err != nil {
		t.Fatal(err)
	}
	imp := core.New("entrypoints")
	imp.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, StrideMS: 250, FrequencyHz: 8000, Axes: 1}
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
	if _, err := imp.Train(ds, trainer.Config{Epochs: 3, LearningRate: 0.005, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if err := imp.Quantize(ds); err != nil {
		t.Fatal(err)
	}
	if err := imp.TrainAnomaly(ds, 3, 1); err != nil {
		t.Fatal(err)
	}
	return imp
}

// sameScores reports whether two score maps hold bit-identical values.
func sameScores(a, b map[string]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float32bits(v) != math.Float32bits(w) {
			return false
		}
	}
	return true
}

func sameResult(a, b core.ClassResult) bool {
	return a.Label == b.Label && sameScores(a.Scores, b.Scores) &&
		math.Float64bits(a.AnomalyScore) == math.Float64bits(b.AnomalyScore)
}

func TestEntryPointsBitIdentical(t *testing.T) {
	imp := entryPointImpulse(t)
	rng := rand.New(rand.NewSource(42))
	n := imp.Input.WindowSamples() * imp.Input.Axes
	var windows [][]float32
	for i := 0; i < 6; i++ {
		w := make([]float32, n)
		for j := range w {
			w[j] = float32(rng.NormFloat64() * 0.2)
		}
		windows = append(windows, w)
	}
	// A short window exercises the zero-padding path everywhere.
	windows = append(windows, windows[0][:n/3])

	srv, err := eim.NewServer(imp)
	if err != nil {
		t.Fatal(err)
	}
	int8Differs := false
	for _, quantized := range []bool{false, true} {
		want := make([]core.ClassResult, len(windows))
		for i, w := range windows {
			if quantized {
				want[i], err = imp.ClassifyQuantized(imp.WindowSignal(w))
			} else {
				want[i], err = imp.Classify(imp.WindowSignal(w))
			}
			if err != nil {
				t.Fatal(err)
			}
			if want[i].Label == "" || want[i].AnomalyScore <= 0 {
				t.Fatalf("window %d: degenerate reference %+v", i, want[i])
			}
		}
		if quantized {
			for i, w := range windows {
				float, err := imp.Classify(imp.WindowSignal(w))
				if err != nil {
					t.Fatal(err)
				}
				if !sameScores(float.Scores, want[i].Scores) {
					int8Differs = true
				}
			}
		}

		batch, err := imp.ClassifyBatch(windows, quantized)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sdk.NewClassifier(imp)
		if err != nil {
			t.Fatal(err)
		}
		c.UseQuantized = quantized
		sc, err := stream.NewImpulseClassifier(imp, quantized)
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]float32, len(imp.Classes))
		for i, w := range windows {
			if !sameResult(batch[i], want[i]) {
				t.Errorf("q=%v window %d: batch %+v != single %+v", quantized, i, batch[i], want[i])
			}
			got, err := c.RunClassifier(imp.WindowSignal(w))
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got.ClassResult, want[i]) {
				t.Errorf("q=%v window %d: sdk %+v != core %+v", quantized, i, got.ClassResult, want[i])
			}
			if err := sc.Classify(imp.WindowSignal(w), scores); err != nil {
				t.Fatal(err)
			}
			for k, label := range imp.Classes {
				if math.Float32bits(scores[k]) != math.Float32bits(want[i].Scores[label]) {
					t.Errorf("q=%v window %d: stream %s=%v, core %v", quantized, i, label, scores[k], want[i].Scores[label])
				}
			}
			resp := srv.HandleRequest(eim.Request{ID: i, Classify: &eim.ClassifyParams{Features: w, Quantized: quantized}})
			if !resp.Success {
				t.Fatalf("q=%v window %d: eim: %s", quantized, i, resp.Error)
			}
			fromEIM := core.ClassResult{Label: resp.Result.Label, Scores: resp.Result.Classification, AnomalyScore: resp.Result.Anomaly}
			if !sameResult(fromEIM, want[i]) {
				t.Errorf("q=%v window %d: eim %+v != core %+v", quantized, i, fromEIM, want[i])
			}
		}
	}
	if !int8Differs {
		t.Error("int8 scores equal float scores on every window: quantized path not exercised")
	}
}

// TestRunContinuousEqualsPerWindow: continuous mode is per-window
// RunClassifier at stride-spaced offsets, with nothing layered on top.
func TestRunContinuousEqualsPerWindow(t *testing.T) {
	imp := entryPointImpulse(t)
	sig, _, err := synth.Stream(imp.Classes[0], imp.Input.FrequencyHz, 4, 1, 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	stride := imp.Input.StrideSamples()
	for _, quantized := range []bool{false, true} {
		c, err := sdk.NewClassifier(imp)
		if err != nil {
			t.Fatal(err)
		}
		c.UseQuantized = quantized
		results, err := c.RunContinuous(sig)
		if err != nil {
			t.Fatal(err)
		}
		wins := imp.Windows(sig)
		if len(results) != len(wins) || len(results) < 2 {
			t.Fatalf("q=%v: %d results for %d windows", quantized, len(results), len(wins))
		}
		for i, r := range results {
			if r.WindowStart != i*stride {
				t.Errorf("q=%v window %d: start %d, want %d", quantized, i, r.WindowStart, i*stride)
			}
			want, err := c.RunClassifier(wins[i])
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(r.ClassResult, want.ClassResult) {
				t.Errorf("q=%v window %d: continuous %+v != single %+v", quantized, i, r.ClassResult, want.ClassResult)
			}
		}
	}
}
