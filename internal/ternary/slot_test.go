package ternary

import (
	"math/rand"
	"testing"
)

// slotBitwise is the bit-at-a-time Slot the word-wise copy replaced,
// kept as its oracle.
func slotBitwise(w *Word, off int, o Word) {
	for i := 0; i < o.width; i++ {
		w.SetBit(off+i, o.BitAt(i))
	}
}

// TestSlotMatchesBitwise pins the word-wise Slot against the bit loop
// over random destination and field widths, offsets and ternary words.
// The fixed cases cover off == 0, a field ending exactly at the last
// position, a full-width copy and fields straddling one or two word
// boundaries; the destination starts random so stale bits must be
// overwritten, not OR-ed in.
func TestSlotMatchesBitwise(t *testing.T) {
	type tc struct{ width, off, fw int }
	cases := []tc{
		{1, 0, 1}, {64, 0, 64}, {160, 0, 160}, {160, 0, 32}, {160, 128, 32},
		{104, 96, 8}, {130, 60, 8}, {200, 10, 140}, {129, 1, 128}, {640, 0, 104},
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		width := 1 + rng.Intn(300)
		fw := 1 + rng.Intn(width)
		cases = append(cases, tc{width, rng.Intn(width - fw + 1), fw})
	}
	for _, c := range cases {
		dst := Random(rng, c.width, rng.Float64())
		o := Random(rng, c.fw, rng.Float64())
		want := dst.Copy()
		slotBitwise(&want, c.off, o)
		dst.Slot(c.off, o)
		if !dst.Equal(want) {
			t.Fatalf("Slot(%d, %d-bit) into %d bits:\n got %s\nwant %s", c.off, c.fw, c.width, dst, want)
		}
	}
}
