package main

import (
	"math"
	"testing"
	"time"
)

func at(ms float64) time.Time {
	return time.Unix(0, 0).Add(time.Duration(ms * float64(time.Millisecond)))
}

// tree is one traced classify: the client-observed root, its three
// client-side children, and three replays of the server-side layers
// measured after the round trip, outside the wire span's interval.
func tree(req int64, offset float64) []span {
	o := offset
	return []span{
		{ID: req*10 + 1, Req: req, Name: "op", Start: at(o), End: at(o + 10)},
		{ID: req*10 + 2, Parent: req*10 + 1, Req: req, Name: "client.encode", Start: at(o), End: at(o + 2)},
		{ID: req*10 + 3, Parent: req*10 + 1, Req: req, Name: "api.residual", Start: at(o + 2), End: at(o + 9.5)},
		{ID: req*10 + 4, Parent: req*10 + 1, Req: req, Name: "client.decode", Start: at(o + 9.5), End: at(o + 10)},
		{ID: req*10 + 5, Parent: req*10 + 3, Req: req, Name: "api.decode", Start: at(o + 20), End: at(o + 24)},
		{ID: req*10 + 6, Parent: req*10 + 3, Req: req, Name: "core", Start: at(o + 24), End: at(o + 25)},
		{ID: req*10 + 7, Parent: req*10 + 6, Req: req, Name: "dsp.extract", Start: at(o + 24), End: at(o + 24.25)},
	}
}

func TestSelfTimes(t *testing.T) {
	self := selfTimes(tree(1, 0))
	want := map[int64]time.Duration{
		11: 0,                       // op: fully covered by its children
		12: 2 * time.Millisecond,    // client.encode
		13: 2500 * time.Microsecond, // wire 7.5 ms minus replays 4 + 1
		14: 500 * time.Microsecond,  // client.decode
		15: 4 * time.Millisecond,    // api.decode
		16: 750 * time.Microsecond,  // core 1 ms minus dsp 0.25
		17: 250 * time.Microsecond,  // dsp.extract
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v; want %v", id, self[id], w)
		}
	}
	var sum time.Duration
	for id := range want {
		sum += self[id]
	}
	if sum != 10*time.Millisecond {
		t.Errorf("self times sum to %v; want the root's 10ms", sum)
	}
}

func TestSelfTimeGoesNegativeWhenReplaySlower(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "api.residual", Start: at(0), End: at(1)},
		{ID: 2, Parent: 1, Name: "api.decode", Start: at(5), End: at(7)},
	}
	if got := selfTimes(spans)[1]; got != -time.Millisecond {
		t.Fatalf("self = %v; want -1ms", got)
	}
}

func TestAttributeSumsStageMedians(t *testing.T) {
	var spans []span
	for req := int64(1); req <= 5; req++ {
		spans = append(spans, tree(req, float64(req)*100)...)
	}
	// A span outside any traced operation (the in-process pipeline
	// phase) is not part of the attribution.
	spans = append(spans, span{ID: 999, Req: 99, Name: "core", Start: at(0), End: at(50)})
	a := attribute(opSpans(spans))
	if a.clientP50 != 10 {
		t.Fatalf("client p50 = %v; want 10", a.clientP50)
	}
	if math.Abs(a.stageSum-10) > 1e-9 || a.err() > 1e-9 {
		t.Fatalf("stage sum = %v (err %v); want 10", a.stageSum, a.err())
	}
	if got := len(opSpans(spans)); got != 35 {
		t.Fatalf("opSpans kept %d spans; want the 35 of the five operations", got)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *tracer
	s := tr.start(tr.req(), 0, "op")
	tr.finish(s)
	if id := tr.replay(0, s.id(), "x", func() {}); id != 0 || s.id() != 0 {
		t.Fatalf("nil tracer produced span ids")
	}
}
