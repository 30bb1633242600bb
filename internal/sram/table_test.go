package sram

import (
	"math/bits"
	"math/rand"
	"testing"

	"catcam/internal/bitvec"
	"catcam/internal/ternary"
)

// frozenReference records, at snapshot time, what a view taken then
// must keep answering: the stored words and the valid rows.
type frozenReference struct {
	rows  int
	words map[int]ternary.Word
}

func freeze(a *TernaryArray) frozenReference {
	f := frozenReference{rows: a.Rows(), words: map[int]ternary.Word{}}
	for r := 0; r < a.Rows(); r++ {
		if w, ok := a.EntryWord(r); ok {
			f.words[r] = w
		}
	}
	return f
}

func (f frozenReference) search(k ternary.Key) *bitvec.Vector {
	m := bitvec.New(f.rows)
	for r, w := range f.words {
		if w.Match(k) {
			m.Set(r)
		}
	}
	return m
}

// checkView asserts a view's kernel agrees with the frozen reference,
// and that Match's "any" report agrees with the vector.
func checkView(t *testing.T, v *TernaryView, f frozenReference, k ternary.Key) {
	t.Helper()
	acc := make([]uint64, v.RowWords())
	var st Stats
	hit := v.Match(acc, k, &st)
	got := bitvec.New(v.Rows()).LoadWords(acc)
	want := f.search(k)
	if !got.Equal(want) {
		t.Fatalf("view kernel %s != frozen reference %s\nkey %s", got, want, k)
	}
	if hit != want.Any() {
		t.Fatalf("view Match reported a match=%v for match vector %s", hit, want)
	}
	if st.Searches != 1 || st.Cycles != 1 {
		t.Fatalf("view search accounting %+v, want one search and one cycle", st)
	}
}

// probeKey is a random key, or half the time one that matches a random
// stored word, so probes exercise both misses and hits.
func probeKey(rng *rand.Rand, a *TernaryArray) ternary.Key {
	if rng.Intn(2) == 0 {
		if w, ok := a.EntryWord(rng.Intn(a.Rows())); ok {
			return ternary.RandomMatchingKey(rng, w)
		}
	}
	return ternary.RandomKey(rng, a.Width())
}

// TestTableKernelEquivalence drives interleaved writes, invalidations
// and rewrites of the same rows, and after every step checks the live
// array's table kernel against SearchReference; a view taken
// mid-stream must keep answering as of its snapshot while the array
// moves on. 256 rows run kernel4, 64 and 100 rows kernelN.
func TestTableKernelEquivalence(t *testing.T) {
	for _, rows := range []int{64, 100, 256} {
		for _, width := range []int{160, 640} {
			rng := rand.New(rand.NewSource(int64(rows*1000 + width)))
			a := newTestArray(rows, width)
			var view *TernaryView
			var frozen frozenReference
			for step := 0; step < 600; step++ {
				r := rng.Intn(rows)
				switch op := rng.Intn(6); {
				case op == 0 && a.IsValid(r):
					a.Invalidate(r)
				case op == 1 && a.IsValid(r):
					// Rewrite a live row in place with a fresh word.
					a.WriteEntry(r, ternary.Random(rng, width, rng.Float64()))
				default:
					a.WriteEntry(r, ternary.Random(rng, width, 0.2+0.6*rng.Float64()))
				}
				if step == 300 {
					view, frozen = a.SnapshotView(), freeze(a)
				}
				k := probeKey(rng, a)
				checkEquivalence(t, a, k)
				if view != nil {
					checkView(t, view, frozen, k)
					checkView(t, view, frozen, ternary.RandomKey(rng, width))
				}
			}
			if err := a.AuditPlanes(); err != nil {
				t.Fatalf("rows=%d width=%d: %v", rows, width, err)
			}
		}
	}
}

// TestInjectPlaneFaultTripsAudits flips one knock-out bit and checks
// both the table audit and the search-parity audit fire.
func TestInjectPlaneFaultTripsAudits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := newTestArray(256, 160)
	for r := 0; r < 40; r++ {
		a.WriteEntry(r, ternary.Random(rng, 160, 0.5))
	}
	if err := a.AuditPlanes(); err != nil {
		t.Fatalf("clean array: %v", err)
	}
	w, _ := a.EntryWord(7)
	if err := a.AuditSearchParity(w.MatchingKey()); err != nil {
		t.Fatalf("clean array: %v", err)
	}
	if pos := a.InjectPlaneFault(7); pos < 0 {
		t.Fatal("entry 7 has no cared position")
	}
	if a.AuditPlanes() == nil {
		t.Fatal("table audit missed the flipped knock-out bit")
	}
	if a.AuditSearchParity(w.MatchingKey()) == nil {
		t.Fatal("search-parity audit missed the flipped knock-out bit")
	}
	if a.InjectPlaneFault(255) != -1 {
		t.Fatal("invalid entry reported a fault position")
	}
}

// TestCareProfileFromTable checks the care profile a view derives from
// its knock-out table against a recount from the stored words, after
// deletes and rewrites have left stale table bits behind.
func TestCareProfileFromTable(t *testing.T) {
	for _, geom := range []struct{ rows, width int }{{256, 160}, {100, 640}, {64, 130}} {
		rng := rand.New(rand.NewSource(int64(geom.rows + geom.width)))
		a := newTestArray(geom.rows, geom.width)
		for step := 0; step < 3*geom.rows; step++ {
			r := rng.Intn(geom.rows)
			if rng.Intn(3) == 0 {
				a.Invalidate(r)
			} else {
				a.WriteEntry(r, ternary.Random(rng, geom.width, rng.Float64()))
			}
		}
		want := make([]uint64, geom.width)
		var total uint64
		for r := 0; r < geom.rows; r++ {
			w, ok := a.EntryWord(r)
			if !ok {
				continue
			}
			_, care := w.PlaneWords()
			for pos := 0; pos < geom.width; pos++ {
				if care[pos/64]&(1<<uint(pos%64)) != 0 {
					want[pos]++
				}
			}
			for _, c := range care {
				total += uint64(bits.OnesCount64(c))
			}
		}
		v := a.SnapshotView()
		got := v.CarePerPosition(nil)
		if len(got) != geom.width {
			t.Fatalf("%+v: profile has %d positions, want %d", geom, len(got), geom.width)
		}
		for pos := range want {
			if got[pos] != want[pos] {
				t.Fatalf("%+v: position %d: table-derived care %d, stored words %d", geom, pos, got[pos], want[pos])
			}
		}
		if c := v.CareCount(); c != total {
			t.Fatalf("%+v: CareCount %d, stored words %d", geom, c, total)
		}
	}
}

// FuzzTernaryKernel drives a fuzzed write/invalidate stream into an
// array of fuzzed geometry and checks the live table kernel and a view
// snapshotted mid-stream against the scalar references. The committed
// corpus under testdata/fuzz/FuzzTernaryKernel is replayed by every
// `go test` run.
func FuzzTernaryKernel(f *testing.F) {
	f.Add(int64(1), uint16(255), uint16(159), []byte{0, 1, 2, 3})
	f.Add(int64(2), uint16(99), uint16(639), []byte{9, 9, 9})
	f.Fuzz(func(t *testing.T, seed int64, rows, width uint16, ops []byte) {
		rows, width = 1+rows%300, 1+width%700
		rng := rand.New(rand.NewSource(seed))
		a := newTestArray(int(rows), int(width))
		var view *TernaryView
		var frozen frozenReference
		for i, op := range ops {
			r := int(op) % int(rows)
			switch {
			case op%5 == 0:
				a.Invalidate(r)
			default:
				a.WriteEntry(r, ternary.Random(rng, int(width), float64(op%7)/6))
			}
			if i == len(ops)/2 {
				view, frozen = a.SnapshotView(), freeze(a)
			}
			k := probeKey(rng, a)
			checkEquivalence(t, a, k)
			if view != nil {
				checkView(t, view, frozen, k)
			}
		}
		if err := a.AuditPlanes(); err != nil {
			t.Fatal(err)
		}
	})
}
