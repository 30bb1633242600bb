package sram

import (
	"fmt"
	"math/bits"

	"catcam/internal/bitvec"
	"catcam/internal/ternary"
)

// This file holds the immutable read-side views of the two array
// flavours. A view is a frozen copy of exactly the state a search
// touches — the knock-out table, its chunkAny mask and the valid mask
// for the ternary array, the row bits for a priority matrix — built
// under the writer's lock by SnapshotView and then shared,
// unsynchronized, by any number of concurrent readers. Every slice is
// copied at construction: a view never aliases live array storage, so
// an in-place update to the array can never tear a reader traversing an
// already-published view.
//
// Views carry no Stats of their own (they are shared across
// goroutines); search and decision accounting accumulates into a
// caller-provided *Stats, which the read path keeps in per-goroutine
// scratch and flushes to device-level atomics per batch.

// TernaryView is an immutable snapshot of a TernaryArray's search
// state. All fields are written only at construction.
//
//catcam:snapshot
type TernaryView struct {
	params     Params
	subarrays  int
	rowWords   int
	tab        []uint64 //catcam:immutable
	chunkAny   []uint64 //catcam:immutable
	validWords []uint64 //catcam:immutable
	validCount int
	// searchFJ is one search's energy, fixed by validCount at snapshot
	// time.
	searchFJ float64
}

// SnapshotView freezes the array's current search state into an
// immutable view. Every mutable slice is copied; the returned view
// stays valid (and constant) across later writes to the array. Not a
// modeled hardware access: no cycle or energy accounting.
func (t *TernaryArray) SnapshotView() *TernaryView {
	return &TernaryView{
		params:     t.params,
		subarrays:  t.subarrays,
		rowWords:   t.rowWords,
		tab:        append([]uint64(nil), t.tab...),
		chunkAny:   append([]uint64(nil), t.chunkAny...),
		validWords: append([]uint64(nil), t.valid.Words()...),
		validCount: t.validCount,
		searchFJ:   float64(t.subarrays) * t.params.ComputeEnergyFJ(t.validCount),
	}
}

// Rows returns the entry capacity.
func (v *TernaryView) Rows() int { return v.params.Rows }

// RowWords returns the accumulator length SearchInto requires.
func (v *TernaryView) RowWords() int { return v.rowWords }

// ValidCount returns the number of valid entries at snapshot time.
func (v *TernaryView) ValidCount() int { return v.validCount }

// Width returns the ternary key width (positions) the view matches.
func (v *TernaryView) Width() int { return v.params.Cols * v.subarrays }

// careWords derives word wi of the care masks of chunk c's two
// positions from its four knock-out bitmaps T0..T3 (Tv = entries that
// mismatch key value v). An entry cares at the even position exactly
// when flipping that key bit changes its verdict for some value of the
// odd bit, i.e. (T0^T1)|(T2^T3); symmetrically (T0^T2)|(T1^T3) for the
// odd position. Stale bits of invalidated entries are masked out by the
// valid words.
func (v *TernaryView) careWords(c, wi int) (even, odd uint64) {
	i := c*4*v.rowWords + wi
	t0, t1 := v.tab[i], v.tab[i+v.rowWords]
	t2, t3 := v.tab[i+2*v.rowWords], v.tab[i+3*v.rowWords]
	valid := v.validWords[wi]
	return ((t0 ^ t1) | (t2 ^ t3)) & valid, ((t0 ^ t2) | (t1 ^ t3)) & valid
}

// CareCount returns the number of cared (non-wildcard) ternary
// positions summed over the valid entries. Paired with ValidCount and
// Width it yields the view's care-bit density: CareCount divided by
// ValidCount*Width; the complement is the wildcard density.
//
//catcam:hotpath
func (v *TernaryView) CareCount() uint64 {
	var cared uint64
	for c := 0; c < (v.Width()+1)/2; c++ {
		for wi := 0; wi < v.rowWords; wi++ {
			even, odd := v.careWords(c, wi)
			cared += uint64(bits.OnesCount64(even) + bits.OnesCount64(odd))
		}
	}
	return cared
}

// CarePerPosition appends, for each ternary position, the number of
// valid entries that care at that position, and returns the extended
// slice — the per-position care profile the state observatory exports.
// Passing a reused dst[:0] keeps the call allocation-free.
func (v *TernaryView) CarePerPosition(dst []uint64) []uint64 {
	width := v.Width()
	for c := 0; 2*c < width; c++ {
		var nEven, nOdd uint64
		for wi := 0; wi < v.rowWords; wi++ {
			even, odd := v.careWords(c, wi)
			nEven += uint64(bits.OnesCount64(even))
			nOdd += uint64(bits.OnesCount64(odd))
		}
		dst = append(dst, nEven)
		if 2*c+1 < width {
			dst = append(dst, nOdd)
		}
	}
	return dst
}

// Match runs the knock-out kernel over the frozen table, leaving the
// match vector's words in acc — the caller's accumulator scratch of
// RowWords length; the view is shared between goroutines, so unlike the
// live array it cannot own one — and reports whether any entry matched.
// Cycle and energy accounting is identical to TernaryArray.SearchInto
// but lands in st, the caller's private accumulator.
//
//catcam:hotpath
func (v *TernaryView) Match(acc []uint64, k ternary.Key, st *Stats) bool {
	if k.Width() != v.Width() {
		panic(fmt.Sprintf("sram: key width %d != %d", k.Width(), v.Width()))
	}
	acc = acc[:v.rowWords]
	st.Cycles++
	st.Searches++
	st.EnergyFJ += v.searchFJ

	copy(acc, v.validWords)
	return knockOutKernel(k.Words(), acc, v.tab, v.chunkAny)
}

// SearchInto is Match depositing the match vector into dst (Rows bits).
//
//catcam:hotpath
func (v *TernaryView) SearchInto(dst *bitvec.Vector, acc []uint64, k ternary.Key, st *Stats) *bitvec.Vector {
	v.Match(acc, k, st)
	return dst.LoadWords(acc[:v.rowWords])
}

// MatrixView is an immutable snapshot of a square priority matrix:
// row r occupies words [r*rowWords, (r+1)*rowWords) of the flat rows
// slice. All fields are written only at construction.
//
//catcam:snapshot
type MatrixView struct {
	params   Params
	rowWords int
	rows     []uint64 //catcam:immutable
}

// SnapshotView freezes the matrix's current contents into an immutable
// view. Rows are copied into one flat slice; later WriteRow/WriteColumn
// calls on the array cannot reach it. Not a modeled hardware access.
func (a *Array) SnapshotView() *MatrixView {
	if a.params.Rows != a.params.Cols {
		panic("sram: MatrixView requires a square array")
	}
	return &MatrixView{params: a.params, rowWords: a.rowWords, rows: append([]uint64(nil), a.rows...)}
}

// Rows returns the matrix dimension.
func (v *MatrixView) Rows() int { return v.params.Rows }

// ColumnNORInto runs the in-memory priority decision over the frozen
// rows: identical semantics and accounting to Array.ColumnNORInto,
// with the statistics landing in st, the caller's private accumulator.
//
//catcam:hotpath
func (v *MatrixView) ColumnNORInto(dst, active *bitvec.Vector, st *Stats) *bitvec.Vector {
	if active.Len() != v.params.Rows {
		panic(fmt.Sprintf("sram: active vector length %d != %d", active.Len(), v.params.Rows))
	}
	st.Cycles++
	st.NOROps++
	st.EnergyFJ += v.params.ComputeEnergyFJ(active.Count())

	dst.CopyFrom(active)
	for wi, w := range active.Words() {
		for w != 0 {
			r := wi*64 + bits.TrailingZeros64(w)
			dst.AndNotWords(v.rows[r*v.rowWords : (r+1)*v.rowWords])
			w &= w - 1
		}
	}
	return dst
}
