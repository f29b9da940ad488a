package arena

import "testing"

// Carved slices must be full-length, zeroed, and capacity-clipped so an
// append cannot silently run into the next carve.
func TestCarveContract(t *testing.T) {
	a := New()
	f := a.Floats(3)
	if len(f) != 3 || cap(f) != 3 {
		t.Fatalf("Floats(3): len %d cap %d, want 3/3", len(f), cap(f))
	}
	for i := range f {
		if f[i] != 0 {
			t.Fatalf("Floats carve not zeroed at %d", i)
		}
		f[i] = float64(i + 1)
	}
	g := a.Floats(4)
	for i := range g {
		if g[i] != 0 {
			t.Fatalf("second carve not zeroed at %d (saw neighbour's %g)", i, g[i])
		}
	}
	for i := range f {
		if f[i] != float64(i+1) {
			t.Fatalf("second carve overlapped the first at %d", i)
		}
	}
	c := a.Complexes(5)
	if len(c) != 5 || cap(c) != 5 {
		t.Fatalf("Complexes(5): len %d cap %d, want 5/5", len(c), cap(c))
	}
}

// A nil arena must be a valid receiver everywhere, falling back to the
// heap, so consumers thread it unconditionally.
func TestNilArena(t *testing.T) {
	var a *Arena
	if f := a.Floats(4); len(f) != 4 {
		t.Errorf("nil Floats(4) len = %d", len(f))
	}
	if c := a.Complexes(4); len(c) != 4 {
		t.Errorf("nil Complexes(4) len = %d", len(c))
	}
	if a.Footprint() != 0 {
		t.Errorf("nil Footprint = %d", a.Footprint())
	}
}

// Oversized carves must grow a new slab without disturbing earlier
// carves, and zero-length carves must be harmless.
func TestGrowthAndEdgeSizes(t *testing.T) {
	a := New()
	small := a.Floats(minSlab / 2)
	big := a.Floats(4 * minSlab) // forces a new slab
	small[0], big[0] = 1, 2
	if small[0] != 1 || big[0] != 2 {
		t.Fatal("carves from different slabs interfere")
	}
	if z := a.Floats(0); len(z) != 0 {
		t.Errorf("Floats(0) len = %d", len(z))
	}
	if z := a.Complexes(0); len(z) != 0 {
		t.Errorf("Complexes(0) len = %d", len(z))
	}
}
