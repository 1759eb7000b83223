package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/client"
	"edgepulse/internal/core"
	"edgepulse/internal/ingest"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/resilience"
	"edgepulse/internal/synth"
)

const (
	// rate, windowMS and strideMS are the paper's KWS input shape: 1 s
	// windows of 16 kHz audio (16 000 values) every 250 ms.
	rate     = 16000
	windowMS = 1000
	strideMS = 250
	// datasetSeed fixes the training set independently of --seed, so
	// every run serves the same model and only the traffic varies.
	datasetSeed = 42
	// perClass is the seeded dataset size per class.
	perClass = 16
	// noise is the amplitude of the background noise in synthetic audio.
	noise = 0.03
	// stampBase spaces signed-document timestamps; setup docs use
	// stampBase+i, workload uploads stampBase+1e6+op.
	stampBase = 1700000000
)

// serving describes one serving project: its impulse design and the
// training job that fits it.
type serving struct {
	name  string
	dsp   core.DSPBlockSpec
	train v1.TrainRequest
}

// kwsDSCNN is the paper's KWS model: MFCC features into a DS-CNN, plus
// a K-means anomaly block on the same view.
var kwsDSCNN = serving{
	name: "kws-dscnn",
	dsp:  core.DSPBlockSpec{Name: "audio", Type: "mfcc"},
	train: v1.TrainRequest{
		Model: v1.ModelSpec{Type: "dscnn"}, Epochs: 4, LearningRate: 0.005, Quantize: true, Seed: 7,
	},
}

// kwsMFE is the geometry the fleet's detector thresholds were
// calibrated on: MFE (16 filters, FFT 128) into a conv1d. It carries
// an anomaly block too, so the in-process pipeline exercises the
// anomaly layer on every workload.
var kwsMFE = serving{
	name: "kws-mfe",
	dsp: core.DSPBlockSpec{Name: "audio", Type: "mfe",
		Params: map[string]float64{"num_filters": 16, "fft_length": 128}},
	train: v1.TrainRequest{
		Model:  v1.ModelSpec{Type: "conv1d", Depth: 2, StartFilters: 8, EndFilters: 16},
		Epochs: 8, LearningRate: 0.005, Quantize: true, Seed: 7,
	},
}

// platform is one in-process daemon, wired the way `ei-studio -data`
// wires it, with the per-key rate limit off because every simulated
// device shares one API key.
type platform struct {
	registry *project.Registry
	sched    *jobs.Scheduler
	server   *api.Server
	srv      *http.Server
	served   chan struct{}
	url      string

	c       *client.Client
	apiKey  string
	project *v1.CreateProjectResponse
	impulse *core.Impulse
	seeded  int

	uploadS  float64 // setup.upload_s
	trainS   float64 // trainer.train_s
	jobWaitM float64 // jobs.wait_ms
}

// boot opens durable state in dir and serves the API on a loopback port.
func boot(dir string) (*platform, error) {
	reg, err := project.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("opening state: %w", err)
	}
	sched := jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 4, QueueSize: 64, MaxQueuedPerTag: 16})
	server := api.NewServer(reg, sched,
		api.WithRateLimit(0, 0),
		api.WithGate(resilience.GateConfig{}),
		api.WithReadinessProbe("store", func() error {
			_, err := os.Stat(dir)
			return err
		}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		server.Close()
		sched.Shutdown()
		reg.Close()
		return nil, err
	}
	p := &platform{
		registry: reg, sched: sched, server: server,
		srv:    &http.Server{Handler: server.Handler()},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(p.served)
		p.srv.Serve(ln)
	}()
	return p, nil
}

// close drains streams, stops the HTTP server and waits for it, then
// releases the scheduler and the store.
func (p *platform) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p.server.Drain(ctx)
	p.srv.Shutdown(ctx)
	<-p.served
	p.server.Close()
	p.sched.Shutdown()
	p.registry.Close()
}

// newHTTPClient caps connections at the sender count, so load comes
// from at most nproc connections.
func newHTTPClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
	}}
}

// provision creates the account and the serving project, uploads the
// signed seed dataset, designs the impulse and trains and quantizes it.
func (p *platform) provision(ctx context.Context, s serving, hc *http.Client) error {
	anon := client.New(p.url, client.WithRetries(0), client.WithHTTPClient(hc))
	user, err := anon.CreateUser(ctx, "platbench")
	if err != nil {
		return fmt.Errorf("create user: %w", err)
	}
	p.c, p.apiKey = anon.WithAPIKey(user.APIKey), user.APIKey
	if p.project, err = p.c.CreateProject(ctx, s.name); err != nil {
		return fmt.Errorf("create project: %w", err)
	}

	start := time.Now()
	ds, err := synth.KWSDataset(2, perClass, rate, 1.0, noise, datasetSeed)
	if err != nil {
		return err
	}
	for i, h := range ds.List("") {
		sample, err := ds.Get(h.ID)
		if err != nil {
			return err
		}
		doc, err := signDoc(p.project.HMACKey, sample.Signal.Data, stampBase+int64(i))
		if err != nil {
			return err
		}
		if _, err := p.c.UploadSample(ctx, p.project.ID, client.UploadParams{
			Label: sample.Label, Name: sample.Name, Format: "acquisition",
		}, doc); err != nil {
			return fmt.Errorf("seed upload: %w", err)
		}
		p.seeded++
	}
	p.uploadS = time.Since(start).Seconds()

	if _, err := p.c.Rebalance(ctx, p.project.ID, 0.25); err != nil {
		return fmt.Errorf("rebalance: %w", err)
	}
	cfg := core.Config{
		Version: core.ConfigVersion,
		Name:    s.name,
		Input: core.InputBlock{Kind: core.TimeSeries, WindowMS: windowMS, StrideMS: strideMS,
			FrequencyHz: rate, Axes: 1},
		DSP: []core.DSPBlockSpec{s.dsp},
		Learn: []core.LearnBlockSpec{
			{Type: core.LearnClassification, Inputs: []string{"audio"}},
			{Type: core.LearnAnomaly, Inputs: []string{"audio"}, Params: map[string]float64{"clusters": 3}},
		},
		Classes: synth.KWSLabels(2),
	}
	if _, err := p.c.SetImpulse(ctx, p.project.ID, cfg); err != nil {
		return fmt.Errorf("set impulse: %w", err)
	}
	accepted, err := p.c.Train(ctx, p.project.ID, s.train)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	done, err := p.c.WaitJob(ctx, accepted.JobID)
	if err != nil {
		return fmt.Errorf("wait for training: %w", err)
	}
	if done.Status != v1.JobFinished {
		return fmt.Errorf("training ended %s: %s", done.Status, done.Job.Error)
	}
	m, err := p.c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, k := range m.Scheduler.Kinds {
		if k.Kind == "training" {
			p.trainS, p.jobWaitM = k.AvgRunMS/1000, k.AvgWaitMS
		}
	}
	proj, err := p.registry.GetProject(p.project.ID)
	if err != nil {
		return err
	}
	if p.impulse = proj.Impulse(); p.impulse == nil || p.impulse.QModel == nil || p.impulse.Anomaly == nil {
		return errors.New("trained impulse lacks its int8 model or anomaly block")
	}
	return nil
}

// signDoc wraps one window of mono audio as a signed acquisition doc.
func signDoc(hmacKey string, samples []float32, stamp int64) ([]byte, error) {
	values := make([][]float64, len(samples))
	for i, v := range samples {
		values[i] = []float64{float64(v)}
	}
	return ingest.SignJSON(ingest.Payload{
		DeviceName: "platbench", DeviceType: "NANO33BLE",
		IntervalMS: 1000.0 / rate,
		Sensors:    []ingest.Sensor{{Name: "audio", Units: "wav"}},
		Values:     values,
	}, hmacKey, stamp)
}
