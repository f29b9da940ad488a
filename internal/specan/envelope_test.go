package specan

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// renderStreams builds the complex group streams a fast-path call
// describes with (envA, envB, coeffs), the way the slow path would.
func renderStreams(envA, envB []float64, coeffs [][2]complex128) [][]complex128 {
	out := make([][]complex128, len(coeffs))
	for g, c := range coeffs {
		x := make([]complex128, len(envA))
		for i := range x {
			x[i] = c[0]*complex(envA[i], 0) + c[1]*complex(envB[i], 0)
		}
		out[g] = x
	}
	return out
}

func randomEnvelopes(rng *rand.Rand, n int) (a, b []float64) {
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		// Occupancy-like envelopes: complementary with some wander.
		f := 0.5 + 0.4*math.Sin(2*math.Pi*float64(i)/37.3) + 0.05*rng.NormFloat64()
		a[i] = f
		b[i] = 1 - f
	}
	return a, b
}

// TestStreamProductsMatchIncoherent checks the shared-envelope
// factorization end to end at the analyzer: the streaming products of
// the envelope pair and the noise, combined by Render with the group
// coefficients, must reproduce AnalyzeIncoherent over the rendered group
// streams plus the noise — the per-group Welch passes the reference
// pipeline runs — up to rounding.
func TestStreamProductsMatchIncoherent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 1 << 12
	fs := 1e5
	envA, envB := randomEnvelopes(rng, n)
	coeffs := [][2]complex128{
		{complex(1e-6, 0), complex(3e-7, 1e-7)},
		{complex(0, 2e-7), complex(5e-7, -2e-7)},
		{complex(4e-7, 4e-7), 0},
	}
	noise := make([]complex128, n)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-7
	}
	// A floor low enough not to clip, so the PSDs compare directly.
	a := MustNew(Config{RBW: 30, Window: dsp.Hann, FloorPSD: 1e-40})

	streams := renderStreams(envA, envB, coeffs)
	streams = append(streams, noise)
	want, err := a.AnalyzeIncoherent(streams, fs)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, v := range want.Spectrum.PSD {
		if v > peak {
			peak = v
		}
	}

	scratch := NewScratch()
	for pass := 0; pass < 2; pass++ { // second pass: warmed scratch, same result
		env, noisePSD, err := streamProducts(a, n, envA, envB, noise, fs, 999, scratch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Render(n, coeffs, env, noisePSD, fs, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if got.ActualRBW != want.ActualRBW {
			t.Fatalf("pass %d ActualRBW %g, want %g", pass, got.ActualRBW, want.ActualRBW)
		}
		if got.Spectrum.Bins() != want.Spectrum.Bins() {
			t.Fatalf("pass %d bins %d, want %d", pass, got.Spectrum.Bins(), want.Spectrum.Bins())
		}
		for k := range want.Spectrum.PSD {
			if d := math.Abs(got.Spectrum.PSD[k] - want.Spectrum.PSD[k]); d > 1e-12*peak {
				t.Fatalf("pass %d bin %d: %g, want %g (Δ %g)", pass, k, got.Spectrum.PSD[k], want.Spectrum.PSD[k], d)
			}
		}
	}

	// Nil scratches allocate private ones and must agree too.
	env, noisePSD, err := streamProducts(a, n, envA, envB, noise, fs, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Render(n, coeffs, env, noisePSD, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.Spectrum.PSD {
		if d := math.Abs(got.Spectrum.PSD[k] - want.Spectrum.PSD[k]); d > 1e-12*want.Spectrum.PSD[k]+1e-60 {
			t.Fatalf("nil-scratch bin %d: %g, want %g", k, got.Spectrum.PSD[k], want.Spectrum.PSD[k])
		}
	}
}

// Without coefficients a render degenerates to the floored noise PSD,
// which is exactly a plain incoherent analysis of the noise capture;
// without anything it must report ErrNoCaptures, as AnalyzeIncoherent
// does. Products that do not match the capture's segmentation, and
// captures the analyzer cannot segment, are rejected.
func TestRenderNoiseOnlyAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n = 1 << 10
	fs := 1e5
	a := MustNew(Config{RBW: 100, Window: dsp.Hann, FloorPSD: 1e-40})
	noise := make([]complex128, n)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want, err := a.AnalyzeIncoherent([][]complex128{noise}, fs)
	if err != nil {
		t.Fatal(err)
	}
	_, noisePSD, err := streamProducts(a, n, nil, nil, noise, fs, 999, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Render(n, nil, nil, noisePSD, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bin := firstDiff(got.Spectrum.PSD, want.Spectrum.PSD); bin >= 0 {
		t.Fatalf("noise-only bin %d: %g, want %g", bin, got.Spectrum.PSD[bin], want.Spectrum.PSD[bin])
	}

	if _, err := a.Render(n, nil, nil, nil, fs, nil); !errors.Is(err, ErrNoCaptures) {
		t.Errorf("all-nil should return ErrNoCaptures, got %v", err)
	}
	if _, err := a.AnalyzeIncoherent([][]complex128{nil, nil}, fs); !errors.Is(err, ErrNoCaptures) {
		t.Errorf("all-nil incoherent should return ErrNoCaptures, got %v", err)
	}
	if _, err := a.Render(n, nil, nil, noisePSD, 0, nil); err == nil {
		t.Error("zero sample rate should fail")
	}
	env := make([]float64, n)
	if _, _, err := streamProducts(a, n, env, env, nil, 0, 999, nil); err == nil {
		t.Error("zero sample rate should fail the envelope walk")
	}
	if _, err := a.EnvelopeProductsStream(n, &slicePairSource{a: env[:8], b: env[:8], block: 999}, fs, nil, nil); err == nil {
		t.Error("an envelope source that drains early should fail")
	}
	if _, err := a.NoiseProductsStream(n, nil, fs, nil, nil); err == nil {
		t.Error("nil sample source should fail")
	}
	short := &PairPSD{PA: make([]float64, 8), PB: make([]float64, 8), Cross: make([]complex128, 8)}
	if _, err := a.Render(n, [][2]complex128{{1, 1}}, short, nil, fs, nil); err == nil {
		t.Error("envelope products at the wrong segment length should fail")
	}
	if _, err := a.Render(n, nil, nil, noisePSD[:8], fs, nil); err == nil {
		t.Error("noise PSD at the wrong segment length should fail")
	}
	if _, _, err := streamProducts(a, 1, env[:1], env[:1], nil, fs, 999, nil); err == nil {
		t.Error("one-sample capture should fail")
	}
}
