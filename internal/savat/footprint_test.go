package savat

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/machine"
)

// TestStreamingMeasurementFootprint checks the measurement-level memory
// claim of the streaming pipeline: a warmed Measurer never materializes
// a capture-length buffer — a full synthesize-and-analyze measurement
// allocates far less than one capture — and repeats its value exactly.
func TestStreamingMeasurementFootprint(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := DefaultConfig()
	cfg.Analyzer.RBW = 50 // coarse RBW: segment 8192 ≪ capture 262144
	n := int(cfg.Duration * cfg.SampleRate)
	k, err := BuildKernel(mc, ADD, LDM, cfg.Frequency)
	if err != nil {
		t.Fatal(err)
	}

	// Warm up: the first measurements size the working set and fill the
	// Measurer's product cache until it recycles evicted buffers.
	m := NewMeasurer(mc, cfg)
	for seed := int64(1); seed <= 4; seed++ {
		if _, err := m.MeasureKernel(k, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh seed misses the product cache and streams the whole
	// capture, yet its total allocation stays far below even one
	// capture-length float64 buffer (8n bytes; a capture-at-once
	// pipeline's working set is 4·8n for the envelope pair and complex
	// noise). The bound leaves generous headroom for the rng and result
	// structs while still being an order below one capture.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	meas, err := m.MeasureKernel(k, rand.New(rand.NewSource(9)))
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if delta, bound := m1.TotalAlloc-m0.TotalAlloc, uint64(n); delta > bound {
		t.Errorf("warmed streaming measurement allocated %d bytes; want ≤ %d (capture is %d bytes)",
			delta, bound, 8*n)
	}
	again, err := m.MeasureKernel(k, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if again.SAVAT != meas.SAVAT {
		t.Errorf("repeat measurement drifted: %g vs %g", again.SAVAT, meas.SAVAT)
	}
}
