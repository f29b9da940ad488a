package specan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/dsp"
	"repro/internal/workpool"
)

// slicePairSource yields two in-memory real streams in fixed-size
// blocks. An awkward block size that divides neither the segment nor
// the half-overlap exercises the partial-block fill loop.
type slicePairSource struct {
	a, b  []float64
	block int
}

func (s *slicePairSource) Next(a, b []float64) (int, error) {
	k := len(a)
	if k > s.block {
		k = s.block
	}
	if k > len(s.a) {
		k = len(s.a)
	}
	copy(a[:k], s.a[:k])
	copy(b[:k], s.b[:k])
	s.a, s.b = s.a[k:], s.b[k:]
	return k, nil
}

// sliceSampleSource is the complex single-stream analogue.
type sliceSampleSource struct {
	x     []complex128
	block int
}

func (s *sliceSampleSource) Next(dst []complex128) (int, error) {
	k := len(dst)
	if k > s.block {
		k = s.block
	}
	if k > len(s.x) {
		k = len(s.x)
	}
	copy(dst[:k], s.x[:k])
	s.x = s.x[k:]
	return k, nil
}

// streamProducts runs both streaming product walks over in-memory
// captures delivered in blocks of the given size: the envelope pair
// first, then the noise, each into freshly allocated products. A nil
// envA (or noise) skips that walk and returns nil for it.
func streamProducts(a *Analyzer, n int, envA, envB []float64, noise []complex128, fs float64, block int, s *Scratch) (*PairPSD, []float64, error) {
	var env *PairPSD
	if envA != nil {
		var err error
		if env, err = a.EnvelopeProductsStream(n, &slicePairSource{a: envA, b: envB, block: block}, fs, s, nil); err != nil {
			return nil, nil, err
		}
	}
	var noisePSD []float64
	if noise != nil {
		var err error
		if noisePSD, err = a.NoiseProductsStream(n, &sliceSampleSource{x: noise, block: block}, fs, s, nil); err != nil {
			return nil, nil, err
		}
	}
	return env, noisePSD, nil
}

// randomCaptures draws an n-sample real envelope pair and a complex
// noise capture.
func randomCaptures(rng *rand.Rand, n int) (envA, envB []float64, noise []complex128) {
	envA = make([]float64, n)
	envB = make([]float64, n)
	noise = make([]complex128, n)
	for i := 0; i < n; i++ {
		envA[i] = rng.NormFloat64()
		envB[i] = rng.NormFloat64()
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return envA, envB, noise
}

// streamFixture builds a random envelope pair, group coefficients, and
// a complex noise capture, sized so the analyzer picks a segment much
// shorter than the capture (seg 4096 for n = 1<<15 at RBW 100).
func streamFixture(t *testing.T, n int) (a *Analyzer, envA, envB []float64, coeffs [][2]complex128, noise []complex128, fs float64) {
	t.Helper()
	fs = 262144
	cfg := DefaultConfig()
	cfg.RBW = 100
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	envA, envB, noise = randomCaptures(rng, n)
	for g := 0; g < 3; g++ {
		coeffs = append(coeffs, [2]complex128{
			complex(rng.NormFloat64(), rng.NormFloat64()),
			complex(rng.NormFloat64(), rng.NormFloat64()),
		})
	}
	return a, envA, envB, coeffs, noise, fs
}

// firstDiff returns the first index at which got and want differ in
// any bit (0 on a length mismatch), or -1 when they are identical.
func firstDiff(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// firstDiffComplex is firstDiff for complex bins.
func firstDiffComplex(got, want []complex128) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if firstDiff([]float64{real(got[i]), imag(got[i])}, []float64{real(want[i]), imag(want[i])}) >= 0 {
			return i
		}
	}
	return -1
}

// TestStreamMatchesBuffered is the zero-ULP oracle of the streaming
// spectral products: the segment-fused walks over block sources must
// equal the buffered dsp.WelchScratch passes (WelchPairInto for the
// envelope pair, WelchInto for the noise) on the same samples, bin by
// bin and bit for bit — across windows, segmentations, a capture whose
// tail is shorter than half a segment, source block sizes that misalign
// with the segmentation, and pool shapes from inline to wider than the
// machine. Each pool's scratch (half of them arena-backed) is reused
// across every case, so state carried between analyses cannot hide.
func TestStreamMatchesBuffered(t *testing.T) {
	const fs = 262144
	rng := rand.New(rand.NewSource(42))
	const long = 1<<15 + 100 // 100 samples past the last segment at every segmentation below
	envA, envB, noise := randomCaptures(rng, long)

	type worker struct {
		name string
		s    *Scratch
	}
	var workers []worker
	for i, c := range []int{0, 1, 3, 16} {
		s := NewScratch()
		s.Pool = workpool.New(c)
		name := fmt.Sprintf("pool cap %d", c)
		if i%2 == 1 {
			s.Mem = arena.New()
			name += " (arena)"
		}
		workers = append(workers, worker{name, s})
	}

	for _, win := range []dsp.Window{dsp.Hann, dsp.Blackman, dsp.FlatTop} {
		for _, rbw := range []float64{100, 400} {
			a := MustNew(Config{RBW: rbw, Window: win, FloorPSD: 6e-18})
			for _, n := range []int{1 << 15, long} {
				seg, _, err := a.segmentFor(n, fs)
				if err != nil {
					t.Fatal(err)
				}
				if tail := (n - seg) % (seg / 2); n == long && (tail == 0 || tail >= seg/2) {
					t.Fatalf("fixture broken: %v RBW %g n %d leaves a tail of %d (segment %d)", win, rbw, n, tail, seg)
				}
				ws, err := dsp.NewWelchScratch(seg, win)
				if err != nil {
					t.Fatal(err)
				}
				want := &PairPSD{}
				want.grow(seg)
				if err := ws.WelchPairInto(want.PA, want.PB, want.Cross, envA[:n], envB[:n], fs); err != nil {
					t.Fatal(err)
				}
				wantNoise := make([]float64, seg)
				if err := ws.WelchInto(wantNoise, noise[:n], fs); err != nil {
					t.Fatal(err)
				}

				for _, block := range []int{1 << 20, 4096, 999, 1} {
					if block == 1 && testing.Short() {
						continue // one-sample blocks are slow; full runs only
					}
					for _, w := range workers {
						name := fmt.Sprintf("%v RBW %g n %d block %d %s (segment %d)", win, rbw, n, block, w.name, seg)
						env, noisePSD, err := streamProducts(a, n, envA[:n], envB[:n], noise[:n], fs, block, w.s)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for _, c := range []struct {
							what string
							bin  int
						}{
							{"PA", firstDiff(env.PA, want.PA)},
							{"PB", firstDiff(env.PB, want.PB)},
							{"cross", firstDiffComplex(env.Cross, want.Cross)},
							{"noise", firstDiff(noisePSD, wantNoise)},
						} {
							if c.bin >= 0 {
								t.Fatalf("%s: %s differs from the buffered Welch at bin %d", name, c.what, c.bin)
							}
						}
					}
				}
			}
		}
	}
}

// TestStreamPoolInvariance checks the determinism argument of the
// parallel segment fan-out on one warm scratch whose pool changes
// between analyses: per-segment transforms may run on any pool shape —
// the process default included — but the fixed reduction order keeps
// the products bit-identical to the inline (capacity-0) execution.
func TestStreamPoolInvariance(t *testing.T) {
	const n = 1 << 15
	a, envA, envB, _, noise, fs := streamFixture(t, n)
	s := NewScratch()
	s.Pool = workpool.New(0)
	inlineEnv, inlineNoise, err := streamProducts(a, n, envA, envB, noise, fs, 999, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*workpool.Pool{nil, workpool.New(1), workpool.New(3), workpool.New(16)} {
		s.Pool = p
		env, noisePSD, err := streamProducts(a, n, envA, envB, noise, fs, 999, s)
		if err != nil {
			t.Fatalf("pool %v: %v", p, err)
		}
		for what, bin := range map[string]int{
			"PA": firstDiff(env.PA, inlineEnv.PA), "PB": firstDiff(env.PB, inlineEnv.PB),
			"cross": firstDiffComplex(env.Cross, inlineEnv.Cross), "noise": firstDiff(noisePSD, inlineNoise),
		} {
			if bin >= 0 {
				t.Errorf("pool %v: %s differs from the inline run at bin %d", p, what, bin)
			}
		}
	}
}

// TestStreamFootprint checks the streaming memory claim at the
// analyzer layer: after both product walks and a render of an n-sample
// capture with segment length seg ≪ n, every buffer the scratch
// retains is O(seg) — the capture itself was never materialized.
func TestStreamFootprint(t *testing.T) {
	const n = 1 << 18
	a, envA, envB, coeffs, noise, fs := streamFixture(t, n)
	s := NewScratch()
	env, noisePSD, err := streamProducts(a, n, envA, envB, noise, fs, 4096, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Render(n, coeffs, env, noisePSD, fs, s); err != nil {
		t.Fatal(err)
	}
	seg := s.welch.SegLen()
	if seg >= n/4 {
		t.Fatalf("fixture broken: segment %d not ≪ capture %d", seg, n)
	}
	for _, b := range []struct {
		name string
		cap  int
	}{
		{"wa", cap(s.wa)}, {"wb", cap(s.wb)}, {"wn", cap(s.wn)}, {"sum", cap(s.sum)},
		{"pa", cap(env.PA)}, {"pb", cap(env.PB)}, {"cross", cap(env.Cross)}, {"noisePSD", cap(noisePSD)},
	} {
		if b.cap > seg {
			t.Errorf("buffer %s holds %d samples; want ≤ segment %d", b.name, b.cap, seg)
		}
	}
}
