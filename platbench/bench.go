package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/ingest"
	"edgepulse/internal/synth"
)

const (
	// poolSize distinct seeded windows feed every classify path.
	poolSize = 64
	// batchWindows sizes each classify/batch request.
	batchWindows = 32
	// opTimeout bounds one request; a request that hits it fails.
	opTimeout = 30 * time.Second
)

// bench is one run: the serving platform, its seeded inputs and what
// the phases measured.
type bench struct {
	workload string
	seed     int64
	senders  int
	tr       *tracer
	p        *platform
	hc       *http.Client

	pool   [][]float32
	labels []string
	ref    [2][]core.ClassResult // [quantized][window]

	mu         sync.Mutex
	mismatches []string
	late       []float64 // open-loop lateness, ms
	utterances int       // embedded in streamed audio
	detected   int
}

// newBench synthesizes the window pool from the seed and computes the
// in-process reference result of every window at both precisions.
func newBench(workload string, seed int64, senders int, tr *tracer, p *platform, hc *http.Client) (*bench, error) {
	b := &bench{workload: workload, seed: seed, senders: senders, tr: tr, p: p, hc: hc}
	labels := synth.KWSLabels(2)
	for i := 0; i < poolSize; i++ {
		rng := rand.New(rand.NewSource(synth.Derive(seed, i)))
		label := labels[rng.Intn(len(labels))]
		sig, err := synth.Keyword(label, rate, 1.0, noise, rng)
		if err != nil {
			return nil, err
		}
		b.pool = append(b.pool, sig.Data)
		b.labels = append(b.labels, label)
	}
	for q := 0; q < 2; q++ {
		for _, w := range b.pool {
			var res core.ClassResult
			var err error
			if q == 1 {
				res, err = p.impulse.ClassifyQuantized(b.signal(w))
			} else {
				res, err = p.impulse.Classify(b.signal(w))
			}
			if err != nil {
				return nil, fmt.Errorf("reference classify: %w", err)
			}
			b.ref[q] = append(b.ref[q], res)
		}
	}
	return b, nil
}

func (b *bench) signal(w []float32) dsp.Signal {
	return dsp.Signal{Data: w, Rate: rate, Axes: 1}
}

// pick maps operation i of a phase to a pool window and a precision:
// a seeded choice, half float32 and half int8.
func (b *bench) pick(phase, i int) (window int, quantized bool) {
	h := uint64(synth.Derive(b.seed+int64(phase)*7919, i))
	return int(h % poolSize), h>>32&1 == 1
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

// mismatch records a correctness failure; any one fails the run.
func (b *bench) mismatch(format string, args ...any) {
	b.mu.Lock()
	if len(b.mismatches) < 20 {
		b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
	} else if len(b.mismatches) == 20 {
		b.mismatches = append(b.mismatches, "...")
	}
	b.mu.Unlock()
}

// checkResult compares a served result bit for bit with the in-process
// reference: label, every score and the anomaly score.
func (b *bench) checkResult(what string, w int, quantized bool, label string, scores map[string]float32, anomaly float64) {
	ref := b.ref[btoi(quantized)][w]
	same := label == ref.Label && anomaly == ref.AnomalyScore && len(scores) == len(ref.Scores)
	for k, v := range ref.Scores {
		if got, ok := scores[k]; !ok || got != v {
			same = false
		}
	}
	if !same {
		b.mismatch("%s window %d quantized=%v: served %s %v anomaly %v, in-process %s %v anomaly %v",
			what, w, quantized, label, scores, anomaly, ref.Label, ref.Scores, ref.AnomalyScore)
	}
}

// post sends one request on the wire and returns the status and body.
func (b *bench) post(ctx context.Context, path, contentType string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.p.url+v1.Prefix+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("x-api-key", b.p.apiKey)
	req.Header.Set("Content-Type", contentType)
	resp, err := b.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// classifyOp sends pool window w as one single-window classify and
// records its latency from due; in a traced run it then replays the
// server-side layers on the same body and window.
func (b *bench) classifyOp(ctx context.Context, lat *latencies, w int, quantized bool, due time.Time, trace bool) bool {
	tr := b.tr
	if !trace {
		tr = nil
	}
	req := tr.req()
	root := tr.start(req, 0, "op")
	enc := tr.start(req, root.id(), "client.encode")
	body, err := json.Marshal(v1.ClassifyRequest{Features: b.pool[w], Quantized: quantized})
	tr.finish(enc)
	wire := tr.start(req, root.id(), "api.residual")
	var status int
	var raw []byte
	if err == nil {
		status, raw, err = b.post(ctx, fmt.Sprintf("/projects/%d/classify", b.p.project.ID), "application/json", body)
	}
	tr.finish(wire)
	dec := tr.start(req, root.id(), "client.decode")
	var resp v1.ClassifyResponse
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(raw, &resp)
	}
	tr.finish(dec)
	tr.finish(root)
	if err != nil || status != http.StatusOK {
		lat.fail()
		return false
	}
	lat.ok(time.Since(due))
	b.checkResult("classify", w, quantized, resp.Label, resp.Classification, resp.Anomaly)
	if tr == nil {
		return true
	}
	tr.replay(req, wire.id(), "api.decode", func() {
		var in v1.ClassifyRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		dec.Decode(&in)
	})
	res := b.classifyLayers(tr, req, wire.id(), b.pool[w], quantized, true)
	tr.replay(req, wire.id(), "api.encode", func() {
		json.NewEncoder(io.Discard).Encode(v1.ClassifyResponse{
			Success: true, Label: res.Label, Classification: res.Scores, Anomaly: res.AnomalyScore,
		})
	})
	return true
}

// classifyLayers runs the served impulse layer by layer, in the order
// core.Impulse.classify runs them, with a span around each public
// call: DSP extraction, the float or int8 forward pass and, when the
// path runs it, the anomaly score. tr may be nil.
func (b *bench) classifyLayers(tr *tracer, req, parent int64, w []float32, quantized, anomaly bool) core.ClassResult {
	imp := b.p.impulse
	c := tr.start(req, parent, "core")
	res := core.ClassResult{Scores: map[string]float32{}}
	s := tr.start(req, c.id(), "dsp.extract")
	composite, layout, err := imp.ExtractComposite(b.signal(w))
	tr.finish(s)
	if err != nil {
		b.mismatch("extract: %v", err)
		return res
	}
	x, err := imp.ClassifierFeaturesFrom(composite, layout)
	if err != nil {
		b.mismatch("classifier view: %v", err)
		return res
	}
	if quantized {
		s = tr.start(req, c.id(), "quant.forward")
		x = imp.QModel.Forward(x)
	} else {
		s = tr.start(req, c.id(), "nn.forward")
		x = imp.Model.Forward(x)
	}
	tr.finish(s)
	for i, name := range imp.Classes {
		res.Scores[name] = x.Data[i]
	}
	res.Label = imp.Classes[x.ArgMax()]
	if anomaly {
		s = tr.start(req, c.id(), "anomaly.score")
		av, err := imp.AnomalyFeaturesFrom(composite, layout)
		if err == nil {
			res.AnomalyScore = imp.Anomaly.Score(av.Data)
		}
		tr.finish(s)
		if err != nil {
			b.mismatch("anomaly view: %v", err)
		}
	}
	tr.finish(c)
	return res
}

// openLoop issues operations base, base+1, ... on a fixed schedule for
// d from a pool of senders: each is due at start+(i-base)/rate whether
// or not earlier ones have completed, and waits for a free sender if
// none is idle.
func (b *bench) openLoop(ctx context.Context, rate float64, d time.Duration, base int, op func(i int, due time.Time)) {
	sched := schedule{start: time.Now().Add(10 * time.Millisecond), rate: rate}
	n := sched.count(d)
	// Buffered to the number of sends, so the generator never blocks
	// and its pace stays independent of the senders.
	todo := make(chan int, n)
	var wg sync.WaitGroup
	late := make([][]float64, b.senders)
	for s := 0; s < b.senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := range todo {
				due := sched.due(i)
				late[s] = append(late[s], float64(lateness(due, time.Now()))/float64(time.Millisecond))
				op(base+i, due)
			}
		}(s)
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		time.Sleep(time.Until(sched.due(i)))
		todo <- i
	}
	close(todo)
	wg.Wait()
	b.mu.Lock()
	for _, l := range late {
		b.late = append(b.late, l...)
	}
	b.mu.Unlock()
}

// throughput accumulates streaming work per session: units done and
// the time from the session's start to its last completion. Ending each
// session's clock at its own last completion keeps the idle tail after
// the phase deadline out of the rate.
type throughput struct {
	mu    sync.Mutex
	units map[int]int
	busy  map[int]time.Duration
}

func (t *throughput) add(client, units int, busy time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.units == nil {
		t.units, t.busy = map[int]int{}, map[int]time.Duration{}
	}
	t.units[client] += units
	t.busy[client] += busy
}

// perSecond sums each client's units per second of its busy time.
func (t *throughput) perSecond() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var r float64
	for c, u := range t.units {
		if t.busy[c] > 0 {
			r += float64(u) / t.busy[c].Seconds()
		}
	}
	return r
}

// closedLoop runs senders clients that each issue their next operation
// as soon as the previous one returns, until d has passed. Operation
// indexes start at base, and each client alternates float32 and int8,
// so the precision mix is even however many operations a client
// completes.
func (b *bench) closedLoop(ctx context.Context, d time.Duration, base int, op func(i int, quantized bool)) {
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < b.senders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(stop) && ctx.Err() == nil; k++ {
				op(base+k*b.senders+c, k%2 == 1)
			}
		}(c)
	}
	wg.Wait()
}

// batchPhase drives closed-loop 32-window classify/batch requests,
// recording each request's time in lat.
func (b *bench) batchPhase(ctx context.Context, d time.Duration, base int, lat *latencies) {
	b.closedLoop(ctx, d, base, func(i int, quantized bool) {
		ws := make([][]float32, batchWindows)
		idx := make([]int, batchWindows)
		for j := range ws {
			idx[j], _ = b.pick(phaseBatch, i*batchWindows+j)
			ws[j] = b.pool[idx[j]]
		}
		body, err := json.Marshal(v1.ClassifyBatchRequest{Windows: ws, Quantized: quantized})
		start := time.Now()
		var status int
		var raw []byte
		if err == nil {
			status, raw, err = b.post(ctx, fmt.Sprintf("/projects/%d/classify/batch", b.p.project.ID), "application/json", body)
		}
		var resp v1.ClassifyBatchResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(raw, &resp)
		}
		if err != nil || status != http.StatusOK || len(resp.Results) != batchWindows {
			lat.fail()
			return
		}
		lat.ok(time.Since(start))
		for j, r := range resp.Results {
			b.checkResult("batch", idx[j], quantized, r.Label, r.Classification, r.Anomaly)
		}
		if b.tr == nil {
			return
		}
		req := b.tr.req()
		b.tr.replay(req, 0, "batch.decode", func() {
			var in v1.ClassifyBatchRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			dec.Decode(&in)
		})
		b.tr.replay(req, 0, "batch.core", func() {
			if _, err := b.p.impulse.ClassifyBatch(ws, quantized); err != nil {
				b.mismatch("batch replay: %v", err)
			}
		})
	})
}

// pipelinePhase classifies pool windows in process on one goroutine,
// through core.Impulse alone. Each sample is one window classified at
// both precisions, in µs: the float32 and int8 times differ, and the
// median of a mix of two modes would jump between them.
func (b *bench) pipelinePhase(d time.Duration, base int) []float64 {
	var us []float64
	imp := b.p.impulse
	stop := time.Now().Add(d)
	var res [2]core.ClassResult
	var errs [2]error
	for i := base; time.Now().Before(stop); i++ {
		w, _ := b.pick(phasePipeline, i)
		start := time.Now()
		if b.tr != nil {
			for q := range res {
				res[q] = b.classifyLayers(b.tr, b.tr.req(), 0, b.pool[w], q == 1, true)
			}
		} else {
			res[0], errs[0] = imp.Classify(b.signal(b.pool[w]))
			res[1], errs[1] = imp.ClassifyQuantized(b.signal(b.pool[w]))
		}
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
		for q := range res {
			if errs[q] != nil {
				b.mismatch("pipeline: %v", errs[q])
				continue
			}
			b.checkResult("pipeline", w, q == 1, res[q].Label, res[q].Scores, res[q].AnomalyScore)
		}
	}
	return us
}

// Phase numbers salt the seeded window and precision choices so each
// phase draws its own sequence.
const (
	phaseOpen = iota + 1
	phaseClosed
	phaseBatch
	phasePipeline
)

// allocRuns is how many calls an allocation count averages over.
const allocRuns = 20

// allocs counts heap allocations per call of the primary operation's
// server-side decode and core layers, on an idle platform so only the
// measured call allocates.
func (b *bench) allocs(own *data.Dataset) (decode, coreAllocs float64) {
	w := b.pool[0]
	switch b.workload {
	case "classify":
		body, _ := json.Marshal(v1.ClassifyRequest{Features: w})
		decode = testing.AllocsPerRun(allocRuns, func() {
			var in v1.ClassifyRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			dec.Decode(&in)
		})
		coreAllocs = testing.AllocsPerRun(allocRuns, func() { b.p.impulse.Classify(b.signal(w)) })
	case "stream":
		line, _ := json.Marshal(v1.StreamPushRequest{Samples: w[:chunkFrames]})
		decode = testing.AllocsPerRun(allocRuns, func() {
			var push v1.StreamPushRequest
			json.Unmarshal(line, &push)
		})
		coreAllocs = testing.AllocsPerRun(allocRuns, func() { b.classifyLayers(nil, 0, 0, w, false, false) })
	case "ingest":
		doc, _ := signDoc(b.p.project.HMACKey, w, stampBase)
		decode = testing.AllocsPerRun(allocRuns, func() { ingest.Verify(doc, b.p.project.HMACKey) })
		// AllocsPerRun makes one warm-up call; every call appends
		// distinct content, so the store never takes its duplicate path.
		samples := make([]*data.Sample, allocRuns+1)
		for i := range samples {
			sig, label := b.uploadDoc(3*closedOpBase + i)
			samples[i] = &data.Sample{Name: fmt.Sprintf("a%d", i), Label: label, Signal: b.signal(sig)}
		}
		next := 0
		coreAllocs = testing.AllocsPerRun(allocRuns, func() {
			if _, err := own.Add(samples[next]); err != nil {
				b.mismatch("alloc count append: %v", err)
			}
			next++
		})
	}
	return decode, coreAllocs
}
