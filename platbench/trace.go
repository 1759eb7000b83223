package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation share
// Req; Parent is the span that caused it (0 for the operation's root).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Req    int64     `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// id is the span's ID, or 0 for the nil span of an untraced run.
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) req() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// start opens a span now; finish closes and keeps it.
func (t *tracer) start(req, parent int64, name string) *span {
	if t == nil {
		return nil
	}
	return &span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: time.Now()}
}

func (t *tracer) finish(s *span) {
	if t == nil {
		return
	}
	s.End = time.Now()
	t.keep(*s)
}

// replay keeps a span measured outside its parent's interval: the
// benchmark re-runs a server-side layer call on the same input after
// the round trip, since it cannot time it inside the server.
func (t *tracer) replay(req, parent int64, name string, fn func()) int64 {
	if t == nil {
		return 0
	}
	s := t.start(req, parent, name)
	fn()
	t.finish(s)
	return s.ID
}

// add keeps a span whose interval the caller measured itself.
func (t *tracer) add(req, parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	s := span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: start, End: end}
	t.keep(s)
	return s.ID
}

func (t *tracer) keep(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes gives each span's duration minus the durations of its
// children. Children either nest inside the parent's interval or are
// replays of work the parent's interval contained, so their durations
// are subtracted rather than their overlap; a negative result means a
// replay ran slower than the work it stands for.
func selfTimes(spans []span) map[int64]time.Duration {
	self := make(map[int64]time.Duration, len(spans))
	for i := range spans {
		self[spans[i].ID] += spans[i].dur()
	}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			if _, ok := self[p]; ok {
				self[p] -= spans[i].dur()
			}
		}
	}
	return self
}

// selfByName groups self times in microseconds by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for i := range spans {
		out[spans[i].Name] = append(out[spans[i].Name], float64(self[spans[i].ID])/float64(time.Microsecond))
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maxAttributionErr is how far the stage self times of a traced
// classify may sum from the client-observed median before the run
// fails.
const maxAttributionErr = 0.10

// attribution compares the summed per-stage median self times of the
// traced operations with their median client-observed latency, in ms.
type attribution struct {
	clientP50, stageSum float64
}

func (a attribution) err() float64 {
	if a.clientP50 == 0 {
		return 0
	}
	return math.Abs(a.stageSum-a.clientP50) / a.clientP50
}

// opSpans keeps the spans of operations traced from the client: trees
// under an "op" root. It drops spans with no such root, such as the
// in-process pipeline phase's.
func opSpans(spans []span) []span {
	ops := map[int64]bool{}
	for i := range spans {
		if spans[i].Name == "op" && spans[i].Parent == 0 {
			ops[spans[i].Req] = true
		}
	}
	var out []span
	for i := range spans {
		if ops[spans[i].Req] {
			out = append(out, spans[i])
		}
	}
	return out
}

// attribute sums each stage's median self time over the operations
// traced from the client. The float and int8 forward passes are one
// stage: each operation runs one of them.
func attribute(spans []span) attribution {
	var client []float64
	stages := map[string][]float64{}
	for i := range spans {
		if spans[i].Name == "op" {
			client = append(client, float64(spans[i].dur())/float64(time.Millisecond))
		}
	}
	if len(client) == 0 {
		return attribution{}
	}
	for name, us := range selfByName(spans) {
		if name == "quant.forward" {
			name = "nn.forward"
		}
		stages[name] = append(stages[name], us...)
	}
	var sum float64
	for _, us := range stages {
		sum += median(us)
	}
	return attribution{clientP50: median(client), stageSum: sum / 1000}
}
