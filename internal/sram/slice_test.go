package sram

import (
	"math/rand"
	"testing"

	"catcam/internal/bitvec"
	"catcam/internal/ternary"
)

// newTestArray returns a match matrix with the given geometry, scaling
// the Table I subarray to the requested size.
func newTestArray(rows, width int) *TernaryArray {
	p := MatchMatrixParams()
	p.Rows = rows
	p.Cols = width
	return NewTernaryArray(p, width)
}

// checkEquivalence asserts the table-kernel Search agrees with both the
// scalar SearchReference kernel and a from-scratch Word.Match loop.
func checkEquivalence(t *testing.T, a *TernaryArray, k ternary.Key) {
	t.Helper()
	got := a.Search(k)
	ref := a.SearchReference(k)
	if !got.Equal(ref) {
		t.Fatalf("table kernel %s != reference %s\nkey %s", got, ref, k)
	}
	direct := bitvec.New(a.Rows())
	for r := 0; r < a.Rows(); r++ {
		if w, ok := a.ReadEntry(r); ok && w.Match(k) {
			direct.Set(r)
		}
	}
	if !got.Equal(direct) {
		t.Fatalf("table kernel %s != direct Word.Match %s\nkey %s", got, direct, k)
	}
}

func TestSearchEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, geom := range []struct{ rows, width int }{
		{64, 64}, {256, 160}, {100, 130}, {256, 640}, {17, 70},
	} {
		a := newTestArray(geom.rows, geom.width)
		for r := 0; r < geom.rows; r++ {
			if rng.Intn(4) == 0 {
				continue // leave some rows invalid
			}
			a.WriteEntry(r, ternary.Random(rng, geom.width, 0.3))
		}
		for i := 0; i < 50; i++ {
			checkEquivalence(t, a, ternary.RandomKey(rng, geom.width))
		}
		// Keys that definitely hit: random matching keys of stored words.
		for r := 0; r < geom.rows; r++ {
			if w, ok := a.ReadEntry(r); ok {
				checkEquivalence(t, a, ternary.RandomMatchingKey(rng, w))
			}
		}
	}
}

func TestSearchEquivalenceInterleavedUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := newTestArray(256, 160)
	for step := 0; step < 2000; step++ {
		r := rng.Intn(256)
		switch {
		case rng.Intn(3) == 0 && a.IsValid(r):
			a.Invalidate(r)
		default:
			a.WriteEntry(r, ternary.Random(rng, 160, rng.Float64()))
		}
		if step%20 == 0 {
			checkEquivalence(t, a, ternary.RandomKey(rng, 160))
		}
	}
}

func TestSearchEquivalenceEdgeWords(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := newTestArray(256, 160)
	allStar := ternary.NewWord(160)           // matches everything
	allExact := ternary.FromUint(0xDEAD, 160) // fully specified
	a.WriteEntry(0, allStar)
	a.WriteEntry(1, allExact)
	a.WriteEntry(255, allStar)
	a.WriteEntry(63, allExact)
	checkEquivalence(t, a, ternary.KeyFromUint(0xDEAD, 160))
	checkEquivalence(t, a, ternary.KeyFromUint(0, 160))
	for i := 0; i < 20; i++ {
		checkEquivalence(t, a, ternary.RandomKey(rng, 160))
	}
	// Overwrite exact with star and vice versa; stale planes must not leak.
	a.WriteEntry(1, allStar)
	a.WriteEntry(0, allExact)
	a.Invalidate(255)
	checkEquivalence(t, a, ternary.KeyFromUint(0xDEAD, 160))
	checkEquivalence(t, a, ternary.KeyFromUint(0xBEEF, 160))
}

// TestSearchAccountingParity pins the acceptance criterion that the
// table kernel changes host speed only: cycle/energy statistics of
// a Search-driven array are byte-for-byte identical to a
// SearchReference-driven one across an interleaved update stream.
func TestSearchAccountingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	fast := newTestArray(256, 640)
	slow := newTestArray(256, 640)
	for step := 0; step < 500; step++ {
		r := rng.Intn(256)
		if rng.Intn(3) == 0 && fast.IsValid(r) {
			fast.Invalidate(r)
			slow.Invalidate(r)
		} else {
			w := ternary.Random(rng, 640, 0.4)
			fast.WriteEntry(r, w)
			slow.WriteEntry(r, w)
		}
		k := ternary.RandomKey(rng, 640)
		fast.Search(k)
		slow.SearchReference(k)
	}
	if fast.Stats() != slow.Stats() {
		t.Fatalf("stats diverged:\ntable kernel %+v\nreference  %+v", fast.Stats(), slow.Stats())
	}
}

func TestFirstFree(t *testing.T) {
	a := newTestArray(130, 64)
	if got := a.FirstFree(); got != 0 {
		t.Fatalf("empty FirstFree = %d", got)
	}
	w := ternary.NewWord(64)
	for r := 0; r < 130; r++ {
		a.WriteEntry(r, w)
	}
	if got := a.FirstFree(); got != -1 {
		t.Fatalf("full FirstFree = %d", got)
	}
	a.Invalidate(129)
	if got := a.FirstFree(); got != 129 {
		t.Fatalf("FirstFree = %d, want 129", got)
	}
	a.Invalidate(64)
	if got := a.FirstFree(); got != 64 {
		t.Fatalf("FirstFree = %d, want 64", got)
	}
}

// FuzzSearchEquivalence drives random rulesets and keys from a fuzzed
// seed and asserts kernel equivalence on every probe.
func FuzzSearchEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(80))
	f.Add(int64(42), uint8(200), uint8(160))
	f.Fuzz(func(t *testing.T, seed int64, rows, width uint8) {
		if rows == 0 || width == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		a := newTestArray(int(rows), int(width))
		for i := 0; i < int(rows); i++ {
			if rng.Intn(3) != 0 {
				a.WriteEntry(rng.Intn(int(rows)), ternary.Random(rng, int(width), rng.Float64()))
			} else if r := rng.Intn(int(rows)); a.IsValid(r) {
				a.Invalidate(r)
			}
		}
		for i := 0; i < 10; i++ {
			checkEquivalence(t, a, ternary.RandomKey(rng, int(width)))
		}
	})
}
