package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // unsorted on purpose
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 200, p: 0.95, want: 190, ok: true}, // exactly 10 beyond
		{n: 199, p: 0.95, ok: false},           // 9 beyond
		{n: 1000, p: 0.99, want: 990, ok: true},
		{n: 999, p: 0.99, ok: false},
		{n: 1, p: 0.5, want: 1, ok: true}, // the median needs one sample
		{n: 4, p: 0.5, want: 2, ok: true},
		{n: 0, p: 0.5, ok: false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestFailuresCountAsMisses(t *testing.T) {
	var l latencies
	for i := 0; i < 190; i++ {
		l.ok(time.Millisecond)
	}
	// 10 failures out of 200 sit beyond p95, which stays a success.
	for i := 0; i < 10; i++ {
		l.fail()
	}
	if p95, ok := percentile(l.ms, 0.95); !ok || p95 != 1 {
		t.Fatalf("p95 with 5%% failures = %v, %v; want 1 ms", p95, ok)
	}
	// An eleventh failure reaches p95: it misses any latency limit.
	l.fail()
	if p95, ok := percentile(l.ms, 0.95); !ok || !math.IsInf(p95, 1) {
		t.Fatalf("p95 with 11 failures = %v, %v; want +Inf", p95, ok)
	}
	if l.attempts() != 201 || l.failures != 11 {
		t.Fatalf("attempts %d failures %d; want 201 and 11", l.attempts(), l.failures)
	}
	if p50, _ := percentile(l.ms, 0.5); p50 != 1 {
		t.Fatalf("p50 = %v; want 1 ms", p50)
	}
}

func TestScheduleDueAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, rate: 40}
	if got := s.due(0); !got.Equal(start) {
		t.Fatalf("due(0) = %v; want start", got)
	}
	if got := s.due(40).Sub(start); got != time.Second {
		t.Fatalf("due(40) is %v after start; want 1s", got)
	}
	if got := s.due(3).Sub(start); got != 75*time.Millisecond {
		t.Fatalf("due(3) is %v after start; want 75ms", got)
	}
	if n := s.count(10 * time.Second); n != 400 {
		t.Fatalf("count(10s) = %d; want 400", n)
	}
	if n := s.count(1010 * time.Millisecond); n != 41 {
		t.Fatalf("count(1.01s) = %d; want 41", n)
	}
	due := s.due(2)
	if l := lateness(due, due.Add(-time.Millisecond)); l != 0 {
		t.Fatalf("early start has lateness %v; want 0", l)
	}
	if l := lateness(due, due.Add(34*time.Millisecond)); l != 34*time.Millisecond {
		t.Fatalf("lateness = %v; want 34ms", l)
	}
}

func TestClosedRateReadsTheMedianOperation(t *testing.T) {
	// Two clients, 10 ms per operation: 200 operations per second, and a
	// stall in one operation out of nine does not move it.
	ms := []float64{10, 10, 10, 10, 10, 10, 10, 10, 900}
	if got := closedRate(2, 1, ms); got != 200 {
		t.Fatalf("closedRate = %v; want 200", got)
	}
	// 32 windows per operation: 6400 windows per second.
	if got := closedRate(2, 32, ms); got != 6400 {
		t.Fatalf("closedRate of batches = %v; want 6400", got)
	}
	// A loop whose median operation failed has no rate.
	if got := closedRate(2, 1, []float64{10, math.Inf(1), math.Inf(1)}); got != 0 {
		t.Fatalf("closedRate with most operations failed = %v; want 0", got)
	}
	if got := closedRate(2, 1, nil); got != 0 {
		t.Fatalf("closedRate of no operations = %v; want 0", got)
	}
}

func TestMean(t *testing.T) {
	// Two modes, 270 and 530, in a 3:1 mix: the mean moves with the mix
	// where a median would jump from one mode to the other.
	if got := mean([]float64{270, 270, 270, 530}); got != 335 {
		t.Fatalf("mean = %v; want 335", got)
	}
	if got := mean(nil); got != 0 {
		t.Fatalf("mean of nothing = %v; want 0", got)
	}
}
