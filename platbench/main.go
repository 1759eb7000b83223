// Command platbench is the platform benchmark: it boots the edgepulse
// daemon in process the way `ei-studio -data` wires it, provisions a
// serving project over the public API, drives one seeded workload
// through the HTTP/NDJSON wire contract, checks every output, and
// prints its metrics as one JSON line.
//
// Usage (from the repository root; platbench/run.sh builds and runs it):
//
//	platbench --workload classify|stream|ingest --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans around every layer call and reports the
// per-layer metrics instead. See README.md for what each metric means.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"edgepulse/internal/client"
	"edgepulse/internal/data"
	"edgepulse/internal/project"
)

const (
	// setupRuns is how many times set-up runs; setup_s is their median.
	setupRuns = 3
	// openRate is the open-loop arrival rate in operations per second,
	// well below the ~200 req/s knee of single classify on two cores.
	openRate = 40
	// runTimeout bounds a whole run.
	runTimeout = 170 * time.Second
	// rounds is how many times the phase sequence repeats in a run;
	// roundOps spaces the operation indexes of successive rounds.
	rounds   = 6
	roundOps = 100_000
)

// Shares of --seconds each phase runs for. The pipeline's share is cut
// into pipelineSlices slices, one after each of the other phases of a
// round, so it samples the machine across the whole run.
const (
	openShare      = 0.45
	closedShare    = 0.2
	batchShare     = 0.2
	pipelineShare  = 0.15
	pipelineSlices = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "classify, stream or ingest")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "seconds of measured load")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	switch {
	case *workload != "classify" && *workload != "stream" && *workload != "ingest":
		fatal(fmt.Errorf("unknown --workload %q", *workload))
	case *seconds <= 0 || *trace < 0 || *trace > 1:
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	res, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// settle collects the garbage the last phase left, outside any timed
// call, so every phase starts from a collected heap.
func settle() { runtime.GC() }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "platbench:", err)
	os.Exit(1)
}

// run sets up, drives the workload's phases, checks the outputs and
// collects the metrics. All state lives under .bench_build in the
// working directory and is removed at the end, traces excepted.
func run(workload string, seed int64, total time.Duration, traced bool) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	serve := kwsDSCNN
	if workload == "stream" {
		serve = kwsMFE
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var setupS, uploadS, trainS, waitMS []float64
	var p *platform
	for i := 0; i < setupRuns; i++ {
		if p != nil {
			p.close()
			hc.CloseIdleConnections()
		}
		start := time.Now()
		if p, err = boot(filepath.Join(tmp, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, err
		}
		if err := p.provision(ctx, serve, hc); err != nil {
			p.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		uploadS, trainS, waitMS = append(uploadS, p.uploadS), append(trainS, p.trainS), append(waitMS, p.jobWaitM)
	}
	defer p.close()

	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	senders := runtime.NumCPU()
	b, err := newBench(workload, seed, senders, tr, p, hc)
	if err != nil {
		return nil, err
	}
	before, err := p.c.Metrics(ctx)
	if err != nil {
		return nil, err
	}

	// The phases run in rounds, so every metric samples the whole run
	// rather than one stretch of it.
	phase := func(share float64) time.Duration { return time.Duration(share * float64(total) / rounds) }
	// The primary op's open-loop latencies are kept per round: the upper
	// quartile is the median of the rounds' p75s, so a stall of the
	// machine in one round does not set it.
	var primaries [rounds]latencies
	var side, closed, batch latencies
	var streamRate throughput
	var pipeUS []float64
	var acked, unpacedWindows, blocked int
	var own *data.Dataset
	if workload == "ingest" && traced {
		var reg *project.Registry
		if reg, own, err = ownDataset(filepath.Join(tmp, "own")); err != nil {
			return nil, err
		}
		defer reg.Close()
	}
	ack := func(ok bool) int {
		if !ok {
			return 0
		}
		b.mu.Lock()
		acked++
		b.mu.Unlock()
		return 1
	}
	pipeline := func(base, slice int) {
		settle()
		pipeUS = append(pipeUS, b.pipelinePhase(phase(pipelineShare)/pipelineSlices, base+slice*roundOps/pipelineSlices)...)
	}
	for r := 0; r < rounds; r++ {
		base, primary := r*roundOps, &primaries[r]
		settle()
		switch workload {
		case "classify":
			b.openLoop(ctx, openRate, phase(openShare), base, func(i int, due time.Time) {
				w, quantized := b.pick(phaseOpen, i)
				b.classifyOp(ctx, primary, w, quantized, due, true)
			})
			pipeline(base, 0)
			b.closedLoop(ctx, phase(closedShare), base, func(i int, quantized bool) {
				w, _ := b.pick(phaseClosed, i)
				b.classifyOp(ctx, &closed, w, quantized, time.Now(), false)
			})
		case "stream":
			blocked += b.streamPhase(ctx, phase(openShare), true, r, primary, nil).blocked
			pipeline(base, 0)
			unpaced := b.streamPhase(ctx, phase(closedShare), false, r, &closed, &streamRate)
			blocked += unpaced.blocked
			unpacedWindows += unpaced.windows
		case "ingest":
			// Uploads and single classifies alternate, each at openRate/2.
			b.openLoop(ctx, openRate, phase(openShare), base, func(i int, due time.Time) {
				if i%2 == 0 {
					ack(b.uploadOp(ctx, primary, i/2, due, true, own))
					return
				}
				w, quantized := b.pick(phaseOpen, i)
				b.classifyOp(ctx, &side, w, quantized, due, false)
			})
			pipeline(base, 0)
			b.closedLoop(ctx, phase(closedShare), closedOpBase+base, func(i int, _ bool) {
				ack(b.uploadOp(ctx, &closed, i, time.Now(), false, own))
			})
		}
		pipeline(base, 1)
		b.batchPhase(ctx, phase(batchShare), base, &batch)
		pipeline(base, 2)
	}
	// A closed loop's rate is read from its median operation time, so a
	// stall of the shared machine during a few operations does not set it.
	// Stream sessions are no request-response loop; their windows count
	// over each session's whole life.
	maxOps := closedRate(senders, 1, closed.ms)
	if workload == "stream" {
		maxOps = streamRate.perSecond()
	}
	wps := closedRate(senders, batchWindows, batch.ms)

	// Checks and counters read after the timed phases.
	after, err := p.c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	if before.Runtime == nil || after.Runtime == nil || before.StreamPlane == nil || after.StreamPlane == nil {
		return nil, errors.New("/metrics lacks the runtime or stream plane block")
	}
	if workload == "ingest" {
		list, err := p.c.Samples(ctx, p.project.ID, "", client.Page{Limit: 1})
		if err != nil {
			return nil, err
		}
		if list.Total != p.seeded+acked {
			b.mismatch("dataset holds %d samples, want %d seeded + %d acknowledged", list.Total, p.seeded, acked)
		}
	}
	dropped := after.StreamPlane.DroppedFrames - before.StreamPlane.DroppedFrames
	if dropped != 0 {
		b.mismatch("stream plane dropped %d frames", dropped)
	}

	attempted, failed := unpacedWindows, 0
	var open, quartiles []float64
	all := []*latencies{&side, &closed, &batch}
	for r := range primaries {
		open = append(open, primaries[r].ms...)
		all = append(all, &primaries[r])
	}
	for _, l := range all {
		attempted += l.attempts()
		failed += l.failures
	}
	if attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}

	out := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { out.Metrics[name] = metric{Value: v, Unit: unit} }
	pct := func(samples []float64, p float64) float64 {
		v, ok := percentile(samples, p)
		switch {
		case !ok:
			b.mismatch("%d samples cannot support a p%.0f", len(samples), p*100)
		case math.IsInf(v, 1):
			b.mismatch("p%.0f is a failed operation", p*100)
			v = float64(total) / float64(time.Millisecond)
		}
		return v
	}
	for r := range primaries {
		quartiles = append(quartiles, pct(primaries[r].ms, 0.75))
	}
	openP50, openP75, openP90 := pct(open, 0.5), median(quartiles), pct(open, 0.9)

	pipeMean := mean(pipeUS)
	fmt.Printf("%s seed %d: setup %.2fs; open p50 %.2f p75 %.2f p90 %.2f ms (n=%d); closed %.1f ops/s; batch %.0f windows/s; pipeline mean %.0f p50 %.0f us (n=%d)\n",
		workload, seed, median(setupS), openP50, openP75, openP90, len(open), maxOps, wps, pipeMean, median(pipeUS), len(pipeUS))
	if b.utterances > 0 {
		fmt.Printf("stream detections: %d/%d utterances\n", b.detected, b.utterances)
	}
	if len(side.ms) > 0 {
		fmt.Printf("classify beside uploads: p50 %.2f ms (n=%d)\n", pct(side.ms, 0.5), len(side.ms))
	}

	if !traced {
		put("setup_s", "s", median(setupS))
		put("success_rate", "ratio", 1-float64(failed)/float64(attempted))
		put("heap_sys_mb", "MB", float64(after.Runtime.HeapSysBytes)/(1<<20))
		put("p50_ms", "ms", openP50)
		put("p75_ms", "ms", openP75)
		put("max_ops", "1/s", maxOps)
		put("batch.wps", "1/s", wps)
		put("pipeline.mean_us", "us", pipeMean)
		put("pipeline.p95_us", "us", pct(pipeUS, 0.95))
	} else {
		spans := tr.snapshot()
		if err := writeSpans(filepath.Join(build, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed)), spans); err != nil {
			return nil, err
		}
		// Stage metrics come from the client-traced operations only; the
		// layer kernels also from the pipeline phase.
		ops := opSpans(spans)
		opSelf, allSelf := selfByName(ops), selfByName(spans)
		med := func(self map[string][]float64, name string) float64 {
			if len(self[name]) == 0 {
				return 0
			}
			return median(self[name])
		}
		for _, m := range []struct{ metric, span string }{
			{"client.encode_us", "client.encode"}, {"client.decode_us", "client.decode"},
			{"api.decode_us", "api.decode"}, {"api.encode_us", "api.encode"},
			{"api.residual_us", "api.residual"}, {"core.self_us", "core"},
		} {
			put(m.metric, "us", med(opSelf, m.span))
		}
		for _, m := range []struct{ metric, span string }{
			{"dsp.extract_us", "dsp.extract"}, {"nn.forward_us", "nn.forward"},
			{"quant.forward_us", "quant.forward"}, {"anomaly.score_us", "anomaly.score"},
		} {
			put(m.metric, "us", med(allSelf, m.span))
		}
		put("batch.decode_us_per_window", "us", med(allSelf, "batch.decode")/batchWindows)
		put("batch.core_us_per_window", "us", med(allSelf, "batch.core")/batchWindows)
		decodeAllocs, coreAllocs := b.allocs(own)
		put("api.decode_allocs", "count", decodeAllocs)
		put("core.allocs", "count", coreAllocs)

		put("stream.dropped_frames", "count", float64(dropped))
		put("stream.blocked_pushes", "count", float64(blocked))
		var shed, deadlines int64
		if after.Resilience != nil && before.Resilience != nil {
			shed = after.Resilience.Shed - before.Resilience.Shed
			deadlines = after.Resilience.DeadlineTimeouts - before.Resilience.DeadlineTimeouts
		}
		put("resilience.shed", "count", float64(shed))
		put("resilience.deadline_timeouts", "count", float64(deadlines))
		put("runtime.gc_per_kop", "count", float64(after.Runtime.NumGC-before.Runtime.NumGC)/(float64(attempted)/1000))
		put("trainer.train_s", "s", median(trainS))
		put("jobs.wait_ms", "ms", median(waitMS))
		put("setup.upload_s", "s", median(uploadS))
		put("loadgen.late_p95_ms", "ms", pct(b.late, 0.95))

		att := attribute(ops)
		put("trace.p50_ms", "ms", openP50)
		put("trace.client_p50_ms", "ms", att.clientP50)
		put("trace.stage_sum_ms", "ms", att.stageSum)
		put("trace.attribution_err", "ratio", att.err())
		fmt.Printf("attribution: stage self times sum to %.3f ms against a client-observed p50 of %.3f ms (%.1f%% off)\n",
			att.stageSum, att.clientP50, 100*att.err())
		if workload == "classify" && att.err() > maxAttributionErr {
			b.mismatch("stage self times sum to %.3f ms, more than %.0f%% off the client-observed p50 %.3f ms",
				att.stageSum, 100*maxAttributionErr, att.clientP50)
		}
	}
	for _, m := range b.mismatches {
		fmt.Fprintln(os.Stderr, "mismatch:", m)
	}
	out.Correct = len(b.mismatches) == 0
	return out, nil
}
