package sram

import (
	"math/rand"
	"testing"

	"catcam/internal/bitvec"
	"catcam/internal/ternary"
)

// BenchmarkColumnNOR256 measures the simulator's cost of one in-memory
// priority decision on a full 256x256 array, through the
// allocation-free ColumnNORInto the lookup path calls.
func BenchmarkColumnNOR256(b *testing.B) {
	a := NewArray(PriorityMatrixParams())
	rng := rand.New(rand.NewSource(1))
	row := bitvec.New(256)
	for i := 0; i < 256; i++ {
		row.Reset()
		for j := 0; j < 256; j++ {
			if rng.Intn(2) == 0 {
				row.Set(j)
			}
		}
		a.WriteRow(i, row)
	}
	active := bitvec.New(256)
	for i := 0; i < 32; i++ {
		active.Set(rng.Intn(256))
	}
	dst := bitvec.New(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ColumnNORInto(dst, active)
	}
}

// BenchmarkTernarySearch measures a full-subtable match-matrix search
// (256 valid 640-bit entries) through the allocation-free SearchInto,
// on the live array and on a snapshot view — the kernel the lock-free
// lookup path runs.
func BenchmarkTernarySearch(b *testing.B) {
	t := NewTernaryArray(MatchMatrixParams(), 640)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 256; i++ {
		t.WriteEntry(i, ternary.Random(rng, 640, 0.5))
	}
	k := ternary.RandomKey(rng, 640)
	dst := bitvec.New(256)
	b.Run("array", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t.SearchInto(dst, k)
		}
	})
	b.Run("view", func(b *testing.B) {
		v := t.SnapshotView()
		acc := make([]uint64, v.RowWords())
		var st Stats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.SearchInto(dst, acc, k, &st)
		}
	})
}

// BenchmarkColumnWrite measures the dual-voltage column write.
func BenchmarkColumnWrite(b *testing.B) {
	a := NewArray(PriorityMatrixParams())
	col := bitvec.FromIndices(256, 1, 17, 101, 203)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.WriteColumn(i%256, col)
	}
}
