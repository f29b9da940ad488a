package specan

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dsp"
)

// TestBandPowerMatchesRender pins the band-only entry to the full
// display: for every case, Analyzer.BandPower must return exactly what
// Render + Trace.BandPower returns — the same bits, or the same error.
// One band scratch serves every case, so bins left over from an
// earlier band can never leak into a later one.
func TestBandPowerMatchesRender(t *testing.T) {
	const n = 1 << 13
	an, envA, envB, coeffs, noise, fs := streamFixture(t, n)
	env, err := an.EnvelopeProducts(envA, envB, fs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	noisePSD, err := an.NoiseProducts(noise, fs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	seg := len(noisePSD)
	bw := fs / float64(seg)
	high := MustNew(Config{RBW: an.Config().RBW, Window: an.Config().Window, FloorPSD: 1e10})

	cases := []struct {
		name             string
		an               *Analyzer
		coeffs           [][2]complex128
		env              *PairPSD
		noise            []float64
		center, halfSpan float64
		wantBins         [2]int // the bins the band reads, when it is valid
	}{
		{"in band", an, coeffs, env, noisePSD, 80e3, 1e3, [2]int{1234, 1266}},
		{"wraps across bin 0", an, coeffs, env, noisePSD, 0, 500, [2]int{seg - 8, 8}},
		{"ends at the last bin below fs/2", an, coeffs, env, noisePSD, fs/2 - bw - 1e3, 1e3, [2]int{seg/2 - 32, seg/2 - 1}},
		{"past +fs/2", an, coeffs, env, noisePSD, fs/2 - 100, 1e3, [2]int{}},
		{"past -fs/2", an, coeffs, env, noisePSD, -fs/2 + 100, 1e3, [2]int{}},
		{"noise only", an, nil, nil, noisePSD, 80e3, 1e3, [2]int{1234, 1266}},
		{"nil noise", an, coeffs, env, nil, 80e3, 1e3, [2]int{1234, 1266}},
		{"nil noise, wrapping", an, coeffs, env, nil, -bw / 2, 3 * bw, [2]int{seg - 4, 3}},
		{"floor above every bin", high, coeffs, env, noisePSD, 80e3, 1e3, [2]int{1234, 1266}},
		{"non-positive half span", an, coeffs, env, noisePSD, 80e3, 0, [2]int{}},
		{"no captures", an, nil, nil, nil, 80e3, 1e3, [2]int{}},
	}
	band := NewScratch()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, wantErr := renderBandPower(c.an, n, c.coeffs, c.env, c.noise, fs, c.center, c.halfSpan)
			got, gotErr := c.an.BandPower(n, c.coeffs, c.env, c.noise, fs, c.center, c.halfSpan, band)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("error %v, Render + Trace.BandPower gives %v", gotErr, wantErr)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("band power %g (%#x), Render + Trace.BandPower gives %g (%#x)",
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if wantErr != nil {
				return
			}
			klo, khi, err := dsp.BandBins(seg, fs, c.center-c.halfSpan, c.center+c.halfSpan)
			if err != nil || [2]int{klo, khi} != c.wantBins {
				t.Errorf("band reads bins %d..%d (%v), the case is built for %v", klo, khi, err, c.wantBins)
			}
			if c.an == high && want != 1e10*bw*float64(khi-klo+1) {
				t.Errorf("floored band power %g, want %d bins at the floor", want, khi-klo+1)
			}
		})
	}
}

// renderBandPower is the full-display oracle: render every bin on a
// fresh scratch, then integrate the trace.
func renderBandPower(an *Analyzer, n int, coeffs [][2]complex128, env *PairPSD, noisePSD []float64, fs, center, halfSpan float64) (float64, error) {
	tr, err := an.Render(n, coeffs, env, noisePSD, fs, nil)
	if err != nil {
		return 0, err
	}
	return tr.BandPower(center, halfSpan)
}
