package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail read from fewer points does not repeat between runs.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1) of samples by the
// nearest-rank rule, and false when fewer than minBeyond samples lie
// beyond it (the median only needs one sample). samples is sorted in
// place. A failed operation enters as +Inf, so it misses every limit.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 0.5 && n-rank < minBeyond {
		return 0, false
	}
	return samples[rank-1], true
}

// median is percentile(samples, 0.5) for callers that know samples is
// non-empty.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

// mean is the arithmetic mean of samples, 0 for none.
func mean(samples []float64) float64 {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	if len(samples) == 0 {
		return 0
	}
	return sum / float64(len(samples))
}

// closedRate is the throughput of a closed loop of clients that each
// issue their next operation as soon as the last one returns, read from
// the operations' times in ms: clients x units per operation / median
// time. By Little's law the mean time would give the loop's average
// rate; the median keeps the few operations a stall of the machine
// holds up out of it. A loop whose median operation failed reads 0.
// samples is sorted in place.
func closedRate(clients int, units float64, ms []float64) float64 {
	m, ok := percentile(ms, 0.5)
	if !ok || m <= 0 || math.IsInf(m, 1) {
		return 0
	}
	return float64(clients) * units / (m / 1000)
}

// latencies collects one operation's outcomes from any number of
// goroutines. A failed or refused operation is recorded as a miss: it
// counts as slower than any limit.
type latencies struct {
	mu       sync.Mutex
	ms       []float64
	failures int
}

func (l *latencies) ok(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
	l.mu.Unlock()
}

func (l *latencies) fail() {
	l.mu.Lock()
	l.failures++
	l.ms = append(l.ms, math.Inf(1))
	l.mu.Unlock()
}

// attempts is every recorded outcome, failed ones included.
func (l *latencies) attempts() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ms)
}

// schedule is an open-loop arrival plan: operation i is due at
// start + i/rate, whether or not earlier operations have completed.
type schedule struct {
	start time.Time
	rate  float64
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) * float64(time.Second) / s.rate))
}

// count is how many operations fall due within d.
func (s schedule) count(d time.Duration) int {
	return int(math.Ceil(d.Seconds() * s.rate))
}

// lateness is how long after its due time an operation actually
// started; a generator that keeps up reads ~0. Latency of an open-loop
// operation is timed from due, so lateness is included in it.
func lateness(due, started time.Time) time.Duration {
	if started.Before(due) {
		return 0
	}
	return started.Sub(due)
}
