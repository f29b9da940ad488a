package emsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/activity"
)

// richTable exercises several coherence groups at once.
func richTable() SourceTable {
	t := NewSourceTable()
	t[activity.ALU].Near = 2e-7
	t[activity.L1D].Near = 1e-7
	t[activity.Div].Near = 3e-7
	t[activity.L2].Near = 2.5e-7
	t[activity.Bus] = Source{Near: 1e-7, Far: 5e-8, Diffuse: 1e-8, Group: GroupOffchip}
	t[activity.DRAM] = Source{Near: 8e-8, Far: 6e-8, Diffuse: 2e-8, Group: GroupOffchip, Angle: 0.7}
	return t
}

func richAlt(test *testing.T) Alternation {
	test.Helper()
	var a Alternation
	a.Rates[0].Add(activity.ALU, 3e8)
	a.Rates[0].Add(activity.L1D, 1e8)
	a.Rates[0].Add(activity.Div, 2e7)
	a.Rates[1].Add(activity.ALU, 1e8)
	a.Rates[1].Add(activity.L2, 5e6)
	a.Rates[1].Add(activity.Bus, 5e6)
	a.Rates[1].Add(activity.DRAM, 2e6)
	a.HalfSeconds = [2]float64{6.25e-6, 6.25e-6}
	return a
}

// referenceGroups is the pre-factorization synthesis: one timeline walk
// accumulating every group's complex amplitude per sample directly.
// SynthesizeGroups must reproduce it (up to reassociation rounding) and
// consume the identical rng draws.
func referenceGroups(r *Radiator, alt Alternation, fs float64, n int, jit Jitter, rng *rand.Rand) [NumGroups][]complex128 {
	amps, err := r.PhaseAmplitudes(alt, fs)
	if err != nil {
		panic(err)
	}
	var out [NumGroups][]complex128
	active := 0
	for g := 0; g < NumGroups; g++ {
		if amps[g][0] != 0 || amps[g][1] != 0 {
			out[g] = make([]complex128, n)
			active++
		}
	}
	if active == 0 {
		return out
	}
	maxDrift := jit.MaxDrift
	if maxDrift == 0 {
		maxDrift = 10 * jit.DriftStd
	}
	rho := jit.AmpNoiseCorr
	if rho == 0 {
		rho = 0.99
	}
	ampStep := jit.AmpNoiseStd * math.Sqrt(1-rho*rho)
	dt := 1 / fs
	phase := 0
	walk := 0.0
	scale := 1 + jit.FreqOffset
	ampFluct := [2]float64{jit.AmpNoiseStd * rng.NormFloat64(), jit.AmpNoiseStd * rng.NormFloat64()}
	tEdge := rng.Float64() * alt.HalfSeconds[0] * scale
	advance := func() {
		phase ^= 1
		if phase == 0 {
			walk += rng.NormFloat64() * jit.DriftStd
			walk = math.Max(-maxDrift, math.Min(maxDrift, walk))
			scale = 1 + jit.FreqOffset + walk
			if jit.AmpNoiseStd > 0 {
				for p := 0; p < 2; p++ {
					ampFluct[p] = rho*ampFluct[p] + ampStep*rng.NormFloat64()
				}
			}
		}
		tEdge += alt.HalfSeconds[phase] * scale
	}
	t := 0.0
	for m := 0; m < n; m++ {
		end := t + dt
		var acc [NumGroups]complex128
		for t < end {
			segEnd := math.Min(end, tEdge)
			w := complex((segEnd-t)*(1+ampFluct[phase]), 0)
			for g := 0; g < NumGroups; g++ {
				if out[g] != nil {
					acc[g] += amps[g][phase] * w
				}
			}
			t = segEnd
			if t >= tEdge {
				advance()
			}
		}
		for g := 0; g < NumGroups; g++ {
			if out[g] != nil {
				out[g][m] = acc[g] * complex(fs, 0)
			}
		}
	}
	return out
}

func TestSynthesizeGroupsMatchesDirectAccumulation(t *testing.T) {
	alt := richAlt(t)
	jit := DefaultJitter()
	jit.AmpNoiseStd = 0.15
	for _, seed := range []int64{1, 7, 42} {
		setup := rand.New(rand.NewSource(seed))
		r, err := NewRadiator(richTable(), 0.5, 2e-7, setup)
		if err != nil {
			t.Fatal(err)
		}
		fs := float64(1 << 18)
		n := 4096
		rngA := rand.New(rand.NewSource(seed + 100))
		rngB := rand.New(rand.NewSource(seed + 100))
		got, err := r.SynthesizeGroups(alt, fs, n, jit, rngA)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceGroups(r, alt, fs, n, jit, rngB)
		for g := 0; g < NumGroups; g++ {
			if (got[g] == nil) != (want[g] == nil) {
				t.Fatalf("seed %d group %d nil mismatch", seed, g)
			}
			if got[g] == nil {
				continue
			}
			var peak float64
			for _, v := range want[g] {
				if a := cmplx.Abs(v); a > peak {
					peak = a
				}
			}
			for m := range want[g] {
				if d := cmplx.Abs(got[g][m] - want[g][m]); d > 1e-12*peak {
					t.Fatalf("seed %d group %d sample %d: %v vs %v (Δ %g)", seed, g, m, got[g][m], want[g][m], d)
				}
			}
		}
		// Identical draw streams: the two rngs must now agree.
		for i := 0; i < 8; i++ {
			if a, b := rngA.Float64(), rngB.Float64(); a != b {
				t.Fatalf("seed %d rng diverged at draw %d: %v vs %v", seed, i, a, b)
			}
		}
	}
}

// A fully silent alternation must consume no rng draws — campaigns rely
// on the downstream noise realization being unchanged by whether any
// group radiates.
func TestSynthesizeGroupsSilentConsumesNoDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r, err := NewRadiator(NewSourceTable(), RefDistance, 0, rng) // zero couplings
	if err != nil {
		t.Fatal(err)
	}
	var alt Alternation
	alt.HalfSeconds = [2]float64{6.25e-6, 6.25e-6}
	before := rand.New(rand.NewSource(33))
	after := rand.New(rand.NewSource(33))
	if _, err := r.SynthesizeGroups(alt, 1<<18, 256, DefaultJitter(), after); err != nil {
		t.Fatal(err)
	}
	if a, b := before.Float64(), after.Float64(); a != b {
		t.Errorf("silent synthesis consumed rng draws: %v vs %v", a, b)
	}
}

// SynthesizeEnvelopes renders n samples of each envelope, and the
// envelope weights are occupancy fractions: with no amplitude noise
// they sum to ≈1 per sample.
func TestSynthesizeEnvelopesOccupancy(t *testing.T) {
	alt := richAlt(t)
	fs := float64(1 << 18)
	n := 1024

	env, err := SynthesizeEnvelopes(alt, fs, n, Jitter{}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(env.A) != n || len(env.B) != n {
		t.Fatalf("envelope lengths %d/%d", len(env.A), len(env.B))
	}
	for m := 0; m < n; m++ {
		if s := env.A[m] + env.B[m]; math.Abs(s-1) > 1e-9 {
			t.Fatalf("sample %d occupancy %v, want 1", m, s)
		}
	}
}

func TestSynthesizeEnvelopesErrors(t *testing.T) {
	alt := richAlt(t)
	rng := rand.New(rand.NewSource(8))
	if _, err := SynthesizeEnvelopes(alt, 0, 10, Jitter{}, rng); err == nil {
		t.Error("zero fs should fail")
	}
	if _, err := SynthesizeEnvelopes(alt, 1e6, 0, Jitter{}, rng); err == nil {
		t.Error("zero n should fail")
	}
	bad := alt
	bad.HalfSeconds[0] = 0
	if _, err := SynthesizeEnvelopes(bad, 1e6, 10, Jitter{}, rng); err == nil {
		t.Error("invalid alternation should fail")
	}
}

func TestRadiatorInitMatchesNewRadiator(t *testing.T) {
	table := richTable()
	a, err := NewRadiator(table, 0.5, 1e-7, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	reused := &Radiator{}
	// Prime with different state first; Init must fully overwrite it.
	if err := reused.Init(simpleTable(), RefDistance, 0, rand.New(rand.NewSource(99))); err != nil {
		t.Fatal(err)
	}
	if err := reused.Init(table, 0.5, 1e-7, rand.New(rand.NewSource(21))); err != nil {
		t.Fatal(err)
	}
	if *a != *reused {
		t.Error("Init should reproduce NewRadiator exactly")
	}

	// Errors leave the rng unconsumed and the radiator unchanged.
	rng := rand.New(rand.NewSource(55))
	saved := *reused
	if err := reused.Init(table, -1, 0, rng); err == nil {
		t.Error("negative distance should fail")
	}
	if err := reused.Init(table, 0.5, -1, rng); err == nil {
		t.Error("negative asymmetry should fail")
	}
	if *reused != saved {
		t.Error("failed Init should leave the radiator unchanged")
	}
	fresh := rand.New(rand.NewSource(55))
	if rng.Float64() != fresh.Float64() {
		t.Error("failed Init should not consume rng draws")
	}
}

func TestPhaseAmplitudesErrors(t *testing.T) {
	r, err := NewRadiator(richTable(), 0.5, 0, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	alt := richAlt(t)
	if _, err := r.PhaseAmplitudes(alt, 0); err == nil {
		t.Error("zero fs should fail")
	}
	bad := alt
	bad.HalfSeconds[0] = -1
	if _, err := r.PhaseAmplitudes(bad, 1e6); err == nil {
		t.Error("invalid alternation should fail")
	}
}

// blockPartitions are the awkward block-size cycles the stream
// partition tests drain over: single samples, a cycle of small primes
// and odd sizes that straddles alternation edges and period boundaries
// at every offset, a size that divides nothing in sight, and one block
// one sample short of the capture followed by a one-sample tail.
func blockPartitions(n int) [][]int {
	return [][]int{{1}, {3, 1, 4, 1, 5, 9, 2, 6}, {999}, {4096, 1}, {n - 1}}
}

// TestEnvelopeStreamBlockPartitions is the envelope renderer's
// block-invariance oracle: draining an EnvelopeStream over any block
// partition must produce the one-block drain bit for bit and leave the
// rng at the same point, so the streaming measurement path (which
// drains segment by segment) and the reference pipeline (one block,
// via SynthesizeEnvelopes) render the same envelopes from the same
// seed.
func TestEnvelopeStreamBlockPartitions(t *testing.T) {
	alt := richAlt(t)
	jit := DefaultJitter()
	jit.AmpNoiseStd = 0.1
	jit.DriftStd = 0.002
	fs := float64(1 << 18)
	const n, seed = 20011, 17

	rng := rand.New(rand.NewSource(seed))
	whole, err := NewEnvelopeStream(alt, fs, n, jit, rng)
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB := make([]float64, n), make([]float64, n)
	if k, err := whole.Next(wantA, wantB); err != nil || k != n {
		t.Fatalf("one-block drain: %d samples, %v", k, err)
	}
	wantNext := rng.Int63()

	for _, sizes := range blockPartitions(n) {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewEnvelopeStream(alt, fs, n, jit, rng)
		if err != nil {
			t.Fatal(err)
		}
		gotA, gotB := make([]float64, n), make([]float64, n)
		off := 0
		for i := 0; ; i++ {
			end := min(off+sizes[i%len(sizes)], n) // an empty block once drained
			k, err := s.Next(gotA[off:end], gotB[off:end])
			if err != nil {
				t.Fatalf("blocks %v: %v", sizes, err)
			}
			if k == 0 {
				break
			}
			off += k
		}
		if off != n || s.Remaining() != 0 {
			t.Fatalf("blocks %v: drained %d of %d samples, %d remaining", sizes, off, n, s.Remaining())
		}
		for m := 0; m < n; m++ {
			if gotA[m] != wantA[m] || gotB[m] != wantB[m] {
				t.Fatalf("blocks %v: sample %d is (%g, %g), one-block drain gives (%g, %g)",
					sizes, m, gotA[m], gotB[m], wantA[m], wantB[m])
			}
		}
		if got := rng.Int63(); got != wantNext {
			t.Errorf("blocks %v: next rng draw %d, one-block drain leaves %d", sizes, got, wantNext)
		}
	}
}
