package sram

import (
	"math/rand"
	"testing"

	"catcam/internal/bitvec"
)

// writeColumnReference is the row-by-row column write the word-wise
// deposit replaced, kept as its oracle: a Get of the data bit and a
// SetBool on a copy of every row.
func writeColumnReference(rows []*bitvec.Vector, c int, v *bitvec.Vector) {
	for r, row := range rows {
		row.SetBool(c, v.Get(r))
	}
}

// TestWriteColumnMatchesReference drives both column-write paths and
// row writes over random geometries (including non-multiple-of-64 rows
// and columns) and checks every bit against the row-by-row reference,
// and that each path's stats are exactly what the modeled costs say.
func TestWriteColumnMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range [][2]int{{1, 1}, {8, 8}, {64, 64}, {65, 130}, {100, 37}, {256, 256}} {
		rows, cols := dim[0], dim[1]
		fast := NewArray(smallParams(rows, cols))
		slow := NewArray(smallParams(rows, cols))
		ref := make([]*bitvec.Vector, rows)
		for r := range ref {
			ref[r] = bitvec.New(cols)
		}
		randVec := func(n int) *bitvec.Vector {
			v := bitvec.New(n)
			for i := 0; i < n; i++ {
				v.SetBool(i, rng.Intn(2) == 0)
			}
			return v
		}
		// The modeled costs, accumulated in the arrays' own order so
		// the energy sums compare exactly.
		write := smallParams(rows, cols).WriteEnergyPJ * 1000
		var wantFast, wantSlow Stats
		for step := 0; step < 4*cols; step++ {
			if rng.Intn(4) == 0 {
				r, v := rng.Intn(rows), randVec(cols)
				fast.WriteRow(r, v)
				slow.WriteRow(r, v)
				ref[r].CopyFrom(v)
				for _, st := range []*Stats{&wantFast, &wantSlow} {
					st.Cycles++
					st.RowWrites++
					st.EnergyFJ += write
				}
				continue
			}
			c, v := rng.Intn(cols), randVec(rows)
			fast.WriteColumn(c, v)
			slow.WriteColumnRowwise(c, v)
			writeColumnReference(ref, c, v)
			wantFast.Cycles += 2
			wantFast.ColWrites++
			wantFast.EnergyFJ += 2 * write
			wantSlow.Cycles += uint64(rows)
			wantSlow.RowWrites += uint64(rows)
			wantSlow.EnergyFJ += float64(rows) * write
		}
		if got := fast.Stats(); got != wantFast {
			t.Fatalf("%dx%d: WriteColumn stats %+v, want %+v", rows, cols, got, wantFast)
		}
		if got := slow.Stats(); got != wantSlow {
			t.Fatalf("%dx%d: WriteColumnRowwise stats %+v, want %+v", rows, cols, got, wantSlow)
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if want := ref[r].Get(c); fast.Bit(r, c) != want || slow.Bit(r, c) != want {
					t.Fatalf("%dx%d: bit (%d,%d) fast=%v rowwise=%v want %v",
						rows, cols, r, c, fast.Bit(r, c), slow.Bit(r, c), want)
				}
			}
			if got := fast.ReadRow(r); !got.Equal(ref[r]) {
				t.Fatalf("%dx%d: ReadRow(%d) = %s, want %s", rows, cols, r, got, ref[r])
			}
		}
	}
}
