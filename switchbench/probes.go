package main

import (
	"time"

	"catcam/internal/bitvec"
	"catcam/internal/classbench"
	"catcam/internal/core"
	"catcam/internal/rules"
	"catcam/internal/sram"
	"catcam/internal/ternary"
)

const (
	// probeRounds rounds of each probe are timed; the median counts.
	probeRounds = 7
	// probeRows is the entry count of one subtable view.
	probeRows = 256
)

// layerProbes times the layers below core.Device directly on the
// workload's own inputs: header encoding, the bit-plane search kernel
// and the column-NOR priority decision. It then splits
// core.lookup_ns_per_pkt: core.kernel_share is the share of a lookup
// spent searching the active subtables.
func layerProbes(r *run, rs []rules.Rule, hdrs []rules.Header) {
	r.m["rules.encode_ns"] = encodeProbe(hdrs)
	search, nor := kernelProbe(rs, hdrs, r.seed)
	r.m["sram.search_ns"] = search
	r.m["sram.nor_ns"] = nor
	r.m["core.kernel_share"] = r.m["core.active_subtables"] * search / r.m["core.lookup_ns_per_pkt"]
}

// timeRounds runs body probeRounds times and returns the median time of
// one of its n operations, in nanoseconds.
func timeRounds(n int, body func()) float64 {
	rounds := make([]float64, 0, probeRounds)
	for i := 0; i < probeRounds; i++ {
		t0 := time.Now()
		body()
		rounds = append(rounds, float64(time.Since(t0))/float64(n))
	}
	return median(rounds)
}

// encodeProbe times rules.EncodeHeaderInto per header.
func encodeProbe(hdrs []rules.Header) float64 {
	const reps = 64
	k := ternary.NewKey(rules.TupleBits)
	return timeRounds(reps*len(hdrs), func() {
		for i := 0; i < reps; i++ {
			for _, h := range hdrs {
				rules.EncodeHeaderInto(&k, h)
			}
		}
	})
}

// kernelProbe times TernaryView.SearchInto on a full 256-entry view of
// the workload's first rules (range-expanded and padded to the Compact
// key width), searched with the workload's own packets: like a device
// subtable, the view matches few of them, and the kernel stops early on
// the rest. It times MatrixView.ColumnNORInto on a priority matrix
// ranking the same entries, fed the match vectors of packets drawn to
// match the view, as the winning subtable's decision is.
func kernelProbe(rs []rules.Rule, pkts []rules.Header, seed int64) (searchNs, norNs float64) {
	width := core.Compact().KeyWidth
	mp := sram.MatchMatrixParams()
	mp.Rows = probeRows
	match := sram.NewTernaryArray(mp, width)
	var prio []int
	var used []rules.Rule
	for _, r := range rs {
		if len(prio) == probeRows {
			break
		}
		used = append(used, r)
		for _, w := range r.Encode() {
			if len(prio) == probeRows {
				break
			}
			pw := ternary.NewWord(width)
			pw.Slot(0, w)
			match.WriteEntry(len(prio), pw)
			prio = append(prio, r.Priority)
		}
	}
	pp := sram.PriorityMatrixParams()
	pp.Rows, pp.Cols = probeRows, probeRows
	pm := sram.NewArray(pp)
	// Row i marks the entries i beats; ties break by slot.
	for i := range prio {
		row := bitvec.New(probeRows)
		for j := range prio {
			if prio[i] > prio[j] || (prio[i] == prio[j] && i > j) {
				row.Set(j)
			}
		}
		pm.WriteRow(i, row)
	}
	tv, mv := match.SnapshotView(), pm.SnapshotView()

	keysOf := func(hs []rules.Header) []ternary.Key {
		enc := ternary.NewKey(rules.TupleBits)
		keys := make([]ternary.Key, len(hs))
		for i, h := range hs {
			rules.EncodeHeaderInto(&enc, h)
			keys[i] = ternary.NewKey(width)
			keys[i].LoadPadded(enc)
		}
		return keys
	}
	acc := make([]uint64, tv.RowWords())
	var st sram.Stats
	const reps = 32
	keys := keysOf(pkts[:min(len(pkts), 1024)])
	scratch := bitvec.New(probeRows)
	searchNs = timeRounds(reps*len(keys), func() {
		for i := 0; i < reps; i++ {
			for _, k := range keys {
				tv.SearchInto(scratch, acc, k, &st)
			}
		}
	})

	matching := keysOf(classbench.PacketTrace(&rules.Ruleset{Rules: used}, probeRows, 1, seed))
	vecs := make([]*bitvec.Vector, len(matching))
	for i, k := range matching {
		vecs[i] = tv.SearchInto(bitvec.New(probeRows), acc, k, &st)
	}
	report := bitvec.New(probeRows)
	norNs = timeRounds(reps*len(vecs), func() {
		for i := 0; i < reps; i++ {
			for _, v := range vecs {
				mv.ColumnNORInto(report, v, &st)
			}
		}
	})
	return searchNs, norNs
}
