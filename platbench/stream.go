package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/synth"
)

const (
	// speedup replays stream audio at 8x real time: a 250 ms chunk every
	// 31.25 ms, 32 windows/s per session.
	speedup     = 8
	chunkPeriod = strideMS * time.Millisecond / speedup
	chunkFrames = rate * strideMS / 1000
	winFrames   = rate * windowMS / 1000
	// streamNoise, streamThreshold and streamRelease are the fleet's
	// calibrated detector settings for the MFE geometry.
	streamNoise     = 0.02
	streamThreshold = 0.52
	streamRelease   = 0.48
	// secondsPerEvent spaces embedded utterances in the stream audio.
	secondsPerEvent = 4
	// loopSeconds is the audio an unpaced session replays in passes.
	loopSeconds = 20
	// blockedWrite is how long a push line write may take before the
	// push counts as held back by TCP flow control.
	blockedWrite = time.Millisecond
)

// streamStats is what one streaming session or phase measured.
type streamStats struct {
	windows int           // result events received
	elapsed time.Duration // from the open ack to the terminal event
	blocked int           // pushes held back by flow control
}

// chunkTimes is when chunk k's push was due, started and finished
// encoding, for the latency and the trace of the window it completes.
type chunkTimes struct {
	due, start, encoded time.Time
}

// session is one duplex streaming session's inputs and outcomes.
type session struct {
	b         *bench
	quantized bool
	offset    time.Duration // of the paced schedule, so devices do not push in lockstep
	chunks    [][]float32   // one pass of audio
	events    []synth.Event
	passes    int

	mu    sync.Mutex
	times []chunkTimes
	lines [][]byte

	results    map[int]int // window start -> results seen
	detections []int64
}

// streamPhase runs one duplex session per sender. Paced sessions push a
// chunk every 250 ms/speedup and time each window from when its last
// chunk was due until its result event arrives; unpaced ones push as
// fast as flow control admits, replaying their audio in passes, for d,
// and add their windows to acc. round salts the audio seeds.
func (b *bench) streamPhase(ctx context.Context, d time.Duration, paced bool, round int, lat *latencies, acc *throughput) streamStats {
	var wg sync.WaitGroup
	sessions := make([]*session, b.senders)
	stats := make([]streamStats, b.senders)
	for s := range sessions {
		seconds := float64(loopSeconds)
		if paced {
			seconds = float64(int(d.Seconds()*speedup*4)) / 4
		}
		src, events, err := synth.NewStreamSource("yes", rate, seconds, int(seconds/secondsPerEvent), streamNoise,
			synth.Derive(b.seed, 1000+100*round+10*btoi(paced)+s))
		if err != nil {
			b.mismatch("stream audio: %v", err)
			return streamStats{}
		}
		sess := &session{b: b, quantized: s%2 == 1, events: events, results: map[int]int{},
			offset: time.Duration(s) * chunkPeriod / time.Duration(b.senders)}
		for c := src.Next(chunkFrames); c != nil; c = src.Next(chunkFrames) {
			sess.chunks = append(sess.chunks, c)
		}
		sessions[s] = sess
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			stats[s] = sessions[s].run(ctx, d, paced, lat)
		}(s)
	}
	wg.Wait()
	var out streamStats
	for s, sess := range sessions {
		out.windows += stats[s].windows
		out.blocked += stats[s].blocked
		if acc != nil {
			acc.add(s, stats[s].windows, stats[s].elapsed)
		}
		sess.score()
	}
	return out
}

// run opens the duplex connection, pushes the audio and reads events
// until the session's terminal event.
func (s *session) run(ctx context.Context, d time.Duration, paced bool, lat *latencies) streamStats {
	b := s.b
	ctx, cancel := context.WithTimeout(ctx, d+opTimeout)
	defer cancel()
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s%s/projects/%d/stream/duplex", b.p.url, v1.Prefix, b.p.project.ID), pr)
	if err != nil {
		b.mismatch("stream request: %v", err)
		return streamStats{}
	}
	req.Header.Set("x-api-key", b.p.apiKey)
	req.Header.Set("Content-Type", "application/x-ndjson")
	open, _ := json.Marshal(v1.StreamOpenRequest{
		Quantized: s.quantized, Threshold: streamThreshold, Release: streamRelease,
		Smooth: 2, Suppress: 4, IgnoreLabels: []string{"noise"},
	})
	go pw.Write(append(open, '\n'))
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer hc.CloseIdleConnections()
	resp, err := hc.Do(req)
	if err != nil {
		b.mismatch("stream open: %v", err)
		return streamStats{}
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var ack v1.StreamOpenResponse
	if resp.StatusCode != http.StatusOK || !sc.Scan() || json.Unmarshal(sc.Bytes(), &ack) != nil ||
		ack.WindowSamples != winFrames || ack.StrideSamples != chunkFrames {
		b.mismatch("stream open: status %d, ack %+v", resp.StatusCode, ack)
		return streamStats{}
	}

	// Replays of the server-side layers run beside the session, so a
	// traced run does not slow the event reader.
	var replayWG sync.WaitGroup
	var replays chan replayJob
	if b.tr != nil && paced {
		replays = make(chan replayJob, len(s.chunks)) // one per window at most
		replayWG.Add(1)
		go func() {
			defer replayWG.Done()
			for j := range replays {
				s.replay(j)
			}
		}()
	}

	start := time.Now()
	var stats streamStats
	writeDone := make(chan int, 1)
	go func() {
		writeDone <- s.push(start, d, paced, pw, &stats)
	}()

	received := 0
	for sc.Scan() {
		read := time.Now()
		var ev v1.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			b.mismatch("stream event line: %v", err)
			break
		}
		decoded := time.Now()
		if ev.Terminal() {
			break
		}
		switch ev.Type {
		case "result":
			received++
			s.results[int(ev.WindowStart)]++
			if !paced {
				continue
			}
			k := int(ev.WindowStart+winFrames)/chunkFrames - 1
			s.mu.Lock()
			sent := len(s.times)
			var ct chunkTimes
			if k >= 0 && k < sent {
				ct = s.times[k]
			}
			s.mu.Unlock()
			if k < 0 || k >= sent {
				b.mismatch("stream result for window %d before its audio was sent", ev.WindowStart)
				continue
			}
			lat.ok(read.Sub(ct.due))
			if replays != nil {
				req := b.tr.req()
				root := b.tr.add(req, 0, "op", ct.start, decoded)
				b.tr.add(req, root, "client.encode", ct.start, ct.encoded)
				wire := b.tr.add(req, root, "api.residual", ct.encoded, read)
				b.tr.add(req, root, "client.decode", read, decoded)
				replays <- replayJob{k: k, req: req, wire: wire}
			}
		case "detection":
			s.detections = append(s.detections, ev.WindowStart)
		}
	}
	end := time.Now()
	cancel()
	chunks := <-writeDone
	if replays != nil {
		close(replays)
		replayWG.Wait()
	}
	stats.elapsed = end.Sub(start)
	windows := chunks - (winFrames/chunkFrames - 1)
	stats.windows = received
	if paced {
		for k := received; k < windows; k++ {
			lat.fail()
		}
	}
	if received != windows {
		b.mismatch("stream session quantized=%v: %d results for %d windows", s.quantized, received, windows)
	}
	return stats
}

// push writes the audio as NDJSON push lines and closes the request
// body, which ends the session once queued frames are classified. It
// returns how many chunks it sent.
func (s *session) push(start time.Time, d time.Duration, paced bool, w *io.PipeWriter, stats *streamStats) int {
	defer w.Close()
	sched := schedule{start: start.Add(s.offset), rate: float64(time.Second) / float64(chunkPeriod)}
	sent := 0
	for pass := 0; ; pass++ {
		for _, chunk := range s.chunks {
			due := sched.due(sent)
			if paced {
				time.Sleep(time.Until(due))
			}
			ct := chunkTimes{due: due, start: time.Now()}
			line, err := json.Marshal(v1.StreamPushRequest{Samples: chunk})
			if err != nil {
				s.b.mismatch("stream push encode: %v", err)
				return sent
			}
			line = append(line, '\n')
			ct.encoded = time.Now()
			// Recorded before the write: the window's result can arrive
			// before Write returns.
			s.mu.Lock()
			s.times = append(s.times, ct)
			if s.b.tr != nil && paced {
				s.lines = append(s.lines, line)
			}
			s.mu.Unlock()
			if _, err := w.Write(line); err != nil {
				return sent
			}
			if time.Since(ct.encoded) >= blockedWrite {
				stats.blocked++
			}
			if paced {
				s.b.mu.Lock()
				s.b.late = append(s.b.late, float64(lateness(due, ct.start))/float64(time.Millisecond))
				s.b.mu.Unlock()
			}
			sent++
		}
		s.passes = pass + 1
		if paced || time.Since(start) >= d {
			return sent
		}
	}
}

// replayJob names the window chunk k completed and the trace of its
// round trip.
type replayJob struct {
	k         int
	req, wire int64
}

// replay re-runs the server-side layers for the window chunk j.k
// completed, as children of its round trip: decoding the push line,
// classifying the window the way a streaming session does (no anomaly
// block), and encoding the result event line.
func (s *session) replay(j replayJob) {
	b, k, req := s.b, j.k, j.req
	s.mu.Lock()
	line := s.lines[k]
	s.mu.Unlock()
	b.tr.replay(req, j.wire, "api.decode", func() {
		var push v1.StreamPushRequest
		json.Unmarshal(line, &push)
	})
	win := make([]float32, 0, winFrames)
	for c := k - winFrames/chunkFrames + 1; c <= k; c++ {
		win = append(win, s.chunks[c%len(s.chunks)]...)
	}
	res := b.classifyLayers(b.tr, req, j.wire, win, s.quantized, false)
	b.tr.replay(req, j.wire, "api.encode", func() {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(v1.StreamEvent{
			Seq: int64(k), Type: "result", TimestampMS: time.Now().UnixMilli(),
			Label: res.Label, Score: res.Scores[res.Label], WindowStart: int64((k+1)*chunkFrames - winFrames),
		})
	})
}

// score checks the session's detections against the embedded
// utterances of every pass it sent: each utterance must be detected
// exactly once, and no detection may fall outside one.
func (s *session) score() {
	n := len(s.chunks) * chunkFrames
	var truth []synth.Event
	for p := 0; p < s.passes; p++ {
		for _, ev := range s.events {
			truth = append(truth, synth.Event{Label: ev.Label, StartSample: ev.StartSample + p*n, EndSample: ev.EndSample + p*n})
		}
	}
	missed, false_ := matchDetections(truth, s.detections, winFrames)
	s.b.mu.Lock()
	s.b.utterances += len(truth)
	s.b.detected += len(truth) - missed
	s.b.mu.Unlock()
	if missed != 0 || false_ != 0 {
		s.b.mismatch("stream session quantized=%v: %d utterances, %d missed, %d false fires",
			s.quantized, len(truth), missed, false_)
	}
	for start, n := range s.results {
		if n != 1 {
			s.b.mismatch("stream window %d got %d results", start, n)
		}
	}
}

// matchDetections pairs each detection with the first not yet detected
// utterance its window overlaps. It returns the utterances never
// detected and the detections that matched none.
func matchDetections(truth []synth.Event, detections []int64, window int) (missed, falseFires int) {
	hit := make([]bool, len(truth))
	for _, d := range detections {
		matched := false
		for i, ev := range truth {
			if !hit[i] && d < int64(ev.EndSample) && d+int64(window) > int64(ev.StartSample) {
				hit[i], matched = true, true
				break
			}
		}
		if !matched {
			falseFires++
		}
	}
	for _, h := range hit {
		if !h {
			missed++
		}
	}
	return missed, falseFires
}
