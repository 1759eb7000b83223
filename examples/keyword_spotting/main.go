// Keyword spotting: the paper's flagship workload, end to end.
//
// It runs the EON Tuner over DSP×model candidates under the Nano 33 BLE
// Sense's constraints, trains the winning configuration, calibrates the
// streaming post-processing with the genetic algorithm (FAR/FRR Pareto
// front), and profiles the final model on all three evaluation boards.
//
//	go run ./examples/keyword_spotting
package main

import (
	"fmt"
	"log"

	"edgepulse/internal/calibration"
	"edgepulse/internal/core"
	"edgepulse/internal/device"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/profiler"
	"edgepulse/internal/renode"
	"edgepulse/internal/sdk"
	"edgepulse/internal/synth"
	"edgepulse/internal/trainer"
	"edgepulse/internal/tuner"
)

func main() {
	const rate = 8000
	ds, err := synth.KWSDataset(2, 16, rate, 1.0, 0.03, 11)
	if err != nil {
		log.Fatal(err)
	}
	input := core.InputBlock{Kind: core.TimeSeries, WindowMS: 1000, StrideMS: 250, FrequencyHz: rate, Axes: 1}
	target := device.MustGet("nano-33-ble-sense")

	// 1. EON Tuner: explore DSP × model candidates under the target's
	// constraints.
	fmt.Println("== EON Tuner ==")
	space := tuner.Space{
		DSP: []tuner.DSPCandidate{
			{Name: "mfe", Params: map[string]float64{"num_filters": 16, "fft_length": 128}, Desc: "MFE (0.02, 0.01, 16)"},
			{Name: "mfcc", Params: map[string]float64{"num_filters": 16, "num_cepstral": 10, "fft_length": 128}, Desc: "MFCC (0.02, 0.01, 10)"},
		},
		Models: []tuner.ModelCandidate{
			{Desc: "2x conv1d (8 to 16)", Build: func(f, c, cl int) (*nn.Model, error) {
				return models.Conv1DStack(f, c, 2, 8, 16, cl)
			}},
			{Desc: "3x conv1d (16 to 64)", Build: func(f, c, cl int) (*nn.Model, error) {
				return models.Conv1DStack(f, c, 3, 16, 64, cl)
			}},
		},
	}
	trials, err := tuner.Run(ds, tuner.Config{
		Space: space, Input: input,
		Constraints: tuner.Constraints{Target: target},
		Epochs:      4, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, tr := range trials {
		fmt.Printf("  %-22s x %-20s acc %.0f%%  total %4.0fms  ram %3dkB  flash %3dkB  fits=%v\n",
			tr.DSPDesc, tr.ModelDesc, tr.Accuracy*100, tr.TotalLatencyMS,
			tr.TotalRAM/1024, tr.NNFlash/1024, tr.Fits)
	}
	best := trials[0]
	fmt.Printf("  -> selected %s x %s\n", best.DSPDesc, best.ModelDesc)

	// 2. Train the winning configuration properly.
	fmt.Println("== training the winner ==")
	imp := core.New("kws")
	imp.Input = input
	blockName := "mfe"
	params := space.DSP[0].Params
	if best.DSPDesc[0] == 'M' && len(best.DSPDesc) > 3 && best.DSPDesc[:4] == "MFCC" {
		blockName = "mfcc"
		params = space.DSP[1].Params
	}
	block, err := dsp.New(blockName, params)
	if err != nil {
		log.Fatal(err)
	}
	imp.UseDSP(block)
	imp.Classes = ds.Labels()
	shape, _ := imp.FeatureShape()
	model, err := models.Conv1DStack(shape[0], shape[1], 3, 16, 64, len(imp.Classes))
	if err != nil {
		log.Fatal(err)
	}
	nn.InitWeights(model, 5)
	if err := imp.AttachClassifier(model); err != nil {
		log.Fatal(err)
	}
	if _, err := imp.Train(ds, trainer.Config{Epochs: 10, LearningRate: 0.005, Seed: 5, RestoreBest: true}); err != nil {
		log.Fatal(err)
	}

	// 3. Performance calibration: tune streaming post-processing on a
	// synthetic stream with known keyword positions.
	fmt.Println("== performance calibration ==")
	keyword := imp.Classes[0]
	if keyword == "noise" {
		keyword = imp.Classes[1]
	}
	stream, events, err := synth.Stream(keyword, rate, 60, 8, 0.02, 17)
	if err != nil {
		log.Fatal(err)
	}
	classifier, err := sdk.NewClassifier(imp)
	if err != nil {
		log.Fatal(err)
	}
	results, err := classifier.RunContinuous(stream)
	if err != nil {
		log.Fatal(err)
	}
	calStream := calibration.Stream{
		Rate: rate, TotalSamples: stream.Frames(), Events: events,
	}
	for _, r := range results {
		calStream.Scores = append(calStream.Scores, r.Scores[keyword])
		calStream.WindowStarts = append(calStream.WindowStarts, r.WindowStart)
	}
	suggestions, err := calibration.Calibrate(calStream, 23)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d Pareto-optimal operating points for %q:\n", len(suggestions), keyword)
	for _, s := range suggestions {
		fmt.Printf("    threshold %.2f  avg %2d  suppress %2d  ->  FAR %5.1f/h  FRR %4.0f%%\n",
			s.Config.Threshold, s.Config.AveragingWindows, s.Config.SuppressionWindows,
			s.Outcome.FalseAcceptsPerHour, s.Outcome.FalseRejectionRate*100)
	}

	// 4. Profile the final model across the paper's three boards.
	fmt.Println("== cross-device profile (float32, TFLM) ==")
	specs, _ := imp.Model.Spec()
	mem, err := profiler.EstimateFloat(imp.Model, renode.TFLM)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range device.EvaluationBoards() {
		est := renode.EstimateFloat(b, imp.DSPCost(), specs, renode.TFLM)
		fmt.Printf("  %-24s dsp %6.1fms  nn %7.1fms  total %7.1fms  fits=%v\n",
			b.Name, est.DSPMillis, est.InferenceMillis, est.TotalMillis,
			profiler.Fits(mem, imp.DSPRAM(), b))
	}
}
