package main

import (
	"testing"

	"edgepulse/internal/synth"
)

func TestMatchDetections(t *testing.T) {
	truth := []synth.Event{
		{StartSample: 10000, EndSample: 26000},
		{StartSample: 30000, EndSample: 46000},
		{StartSample: 90000, EndSample: 106000},
	}
	for _, tc := range []struct {
		name              string
		detections        []int64
		missed, falseFire int
	}{
		{"each once", []int64{12000, 28000, 92000}, 0, 0},
		{"one missed", []int64{12000, 92000}, 1, 0},
		{"fired twice", []int64{12000, 16000, 28000, 92000}, 0, 1},
		{"in silence", []int64{12000, 28000, 60000, 92000}, 0, 1},
		// A window overlapping two utterances credits the first one
		// not yet detected.
		{"overlapping pair", []int64{20000, 24000, 92000}, 0, 0},
	} {
		missed, falseFires := matchDetections(truth, tc.detections, 16000)
		if missed != tc.missed || falseFires != tc.falseFire {
			t.Errorf("%s: missed %d false %d; want %d and %d", tc.name, missed, falseFires, tc.missed, tc.falseFire)
		}
	}
}
