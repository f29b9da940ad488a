package noise

import (
	"math/rand"
	"testing"
)

// TestStreamBlockPartitions is the noise renderer's block-invariance
// oracle: a Stream drained over awkward block partitions must equal
// Environment.Apply on a zeroed buffer sample for sample and leave the
// rng at the same point. The capture spans several carrier re-anchoring
// blocks, and two modulated carriers make every phasor path matter.
func TestStreamBlockPartitions(t *testing.T) {
	env := Lab()
	env.Carriers = append(env.Carriers, Carrier{Freq: -3.3e3, Power: 1e-12, AMDepth: 0.8, AMRate: 51})
	fs := float64(1 << 18)
	const n, seed = 5003, 23

	rng := rand.New(rand.NewSource(seed))
	want := make([]complex128, n)
	if err := env.Apply(want, fs, rng); err != nil {
		t.Fatal(err)
	}
	wantNext := rng.Int63()

	partitions := [][]int{{1}, {3, 1, 4, 1, 5, 9, 2, 6}, {999}, {carrierRenorm + 1}, {n - 1}}
	for _, sizes := range partitions {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewStream(env, fs, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, n)
		off := 0
		for i := 0; ; i++ {
			end := min(off+sizes[i%len(sizes)], n) // an empty block once drained
			k, err := s.Next(got[off:end])
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
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("blocks %v: sample %d is %v, Apply gives %v", sizes, i, got[i], want[i])
			}
		}
		if got := rng.Int63(); got != wantNext {
			t.Errorf("blocks %v: next rng draw %d, Apply leaves %d", sizes, got, wantNext)
		}
	}
}
